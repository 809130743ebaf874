package hw

import "fmt"

// The row-stationary convolution dataflow of Fig. 6: a planner that places
// each conv layer on the array (mapping Types I-III) and counts the words
// its passes stream from the global buffer — the traffic mechanism 2 prices.

// convShape describes one convolution layer instance.
type convShape struct {
	Name           string
	InC, OutC      int
	K, Stride, Pad int
	InH, InW       int
}

// OutH returns the output height.
func (c convShape) OutH() int { return (c.InH+2*c.Pad-c.K)/c.Stride + 1 }

// OutW returns the output width.
func (c convShape) OutW() int { return (c.InW+2*c.Pad-c.K)/c.Stride + 1 }

// MACs returns the multiply-accumulate count of the layer.
func (c convShape) MACs() int64 {
	return int64(c.OutH()) * int64(c.OutW()) * int64(c.OutC) * int64(c.InC) * int64(c.K) * int64(c.K)
}

// WeightWords returns the filter size in 16-bit words (no bias).
func (c convShape) WeightWords() int64 {
	return int64(c.OutC) * int64(c.InC) * int64(c.K) * int64(c.K)
}

// OutputWords returns the output activation volume in words.
func (c convShape) OutputWords() int64 { return int64(c.OutC) * int64(c.OutH()) * int64(c.OutW()) }

// mappingType identifies the three row-stationary data mappings of Fig. 6.
type mappingType int

// The mapping types of Fig. 6.
const (
	// typeI: whole input rows (all channels) fit in the RF; segments
	// stacked over PE rows, full 32-column row groups (CONV1).
	typeI mappingType = iota + 1
	// typeII: input channels split to fit the RF, a single set of
	// segments, one PE column per output row (CONV2).
	typeII
	// typeIII: small filters allow multiple sets side by side, each set
	// processing half the input channels (CONV3-5).
	typeIII
)

// convMapping is the planned placement of one conv layer on the PE array.
type convMapping struct {
	Type mappingType
	// SegRows is the PE-row height of one segment (= filter height K).
	SegRows int
	// SegCols is the PE columns used per segment; each column produces
	// one output row per pass.
	SegCols int
	// Segments is the number of segments per set.
	Segments int
	// Sets is the number of side-by-side segment groups (Type III).
	Sets int
	// InChSplit is how many slices the input channels are cut into so a
	// row fits the RF; Type III maps the slices onto the sets.
	InChSplit int
	// OCPerSeg is the number of filter output channels resident per
	// segment per pass (the "x24", "x14", "x19" annotations of Fig. 6).
	OCPerSeg int
	// OCRounds is the number of passes over output channels.
	OCRounds int
	// RowRounds is the number of passes over output rows.
	RowRounds int
	// SplitRounds is the number of sequential input-channel passes
	// (1 when the sets cover the split in parallel).
	SplitRounds int
	// ActivePEs counts PEs in active rows (full 32-wide rows, matching
	// the paper's active-PE accounting).
	ActivePEs int
}

// ocPerSegHint reproduces the output-channels-per-segment choices published
// in Fig. 6 for the paper's filter sizes, with an RF-derived fallback for
// other shapes.
func ocPerSegHint(a arrayConfig, c convShape, inCEff int) int {
	switch c.K {
	case 11:
		return 24 // Fig. 6(a): "x24 ... x2 = 48 output ch."
	case 5:
		return 14 // Fig. 6(b): "x14 = 84 output ch."
	case 3:
		return 19 // Fig. 6(c): "x19 = 190 output ch. in SET 1&2"
	}
	// Fallback: half the RF holds filter rows of OCPerSeg channels.
	words := a.RFWords() / 2
	per := c.K * inCEff
	if per <= 0 {
		return 1
	}
	oc := words / per
	if oc < 1 {
		oc = 1
	}
	if oc > c.OutC {
		oc = c.OutC
	}
	return oc
}

// planConv places a convolution on the array following Fig. 6.
func planConv(a arrayConfig, c convShape) convMapping {
	if c.K > a.Rows {
		panic(fmt.Sprintf("hw: filter height %d exceeds array rows %d", c.K, a.Rows))
	}
	m := convMapping{SegRows: c.K}
	segments := a.Rows / c.K
	if segments < 1 {
		segments = 1
	}

	// How many input channels fit per RF row buffer? A PE stores one
	// image row spanning SegCols outputs: (SegCols*stride + K - stride)
	// pixels per channel slice.
	outW := c.OutW()
	segCols := a.Cols
	if outW < segCols {
		segCols = outW
	}
	// Split input channels until a full image row slice fits the RF
	// (CONV2: 96 channels x 31 pixels = 2976 words > 2304, so split 2,
	// matching Fig. 6(b); CONV3-5 likewise split 2).
	rowPix := segCols*c.Stride + c.K - c.Stride
	budget := a.RFWords()
	split := 1
	for split < c.InC && (c.InC/split)*rowPix > budget {
		split *= 2
	}
	inCEff := c.InC / split
	if inCEff < 1 {
		inCEff = 1
	}

	switch {
	case split == 1 && c.K*segments <= a.Rows && outW > a.Cols/2:
		// Whole channels fit and the output is wide: Type I, full
		// 32-column row groups (CONV1).
		m.Type = typeI
		m.SegCols = a.Cols
		m.Segments = segments
		m.Sets = 1
		m.SplitRounds = 1
	case 2*outW <= a.Cols && split >= 2:
		// Narrow output and split channels: two sets side by side,
		// each set working one channel slice (CONV3-5).
		m.Type = typeIII
		m.SegCols = outW
		m.Segments = segments
		m.Sets = 2
		// Two slices run in parallel across the sets; remaining
		// slices serialize.
		m.SplitRounds = (split + 1) / 2
	default:
		// One set, channels split sequentially (CONV2).
		m.Type = typeII
		m.SegCols = segCols
		m.Segments = segments
		m.Sets = 1
		m.SplitRounds = split
	}
	m.InChSplit = split
	m.OCPerSeg = ocPerSegHint(a, c, inCEff)

	// Output-channel coverage per pass: each segment holds different
	// output channels; Type III sets share them (sets split channels).
	ocPerPass := m.OCPerSeg * m.Segments
	if ocPerPass > c.OutC {
		ocPerPass = c.OutC
	}
	m.OCRounds = ceilDiv(c.OutC, ocPerPass)
	// Each active column yields one output row per pass.
	m.RowRounds = ceilDiv(c.OutH(), m.SegCols)
	// Active PEs: full 32-wide rows of all segments and sets, matching
	// the paper's counting (CONV1: 22x32=704, CONV2-5: 30x32=960).
	m.ActivePEs = m.Segments * m.SegRows * a.Cols
	if m.ActivePEs > a.PEs() {
		m.ActivePEs = a.PEs()
	}
	return m
}

// convTraffic summarizes the words streamed from the global buffer over a
// full forward pass of the layer under the mapping: filters are re-sent
// every row round, input rows every output-channel round. This streaming
// traffic, at one word per cycle on the broadcast bus, is what dominates
// the measured conv-layer latencies (mechanism 2).
type convTraffic struct {
	WeightWords int64
	InputWords  int64
	OutputWords int64
}

// traffic computes the streamed word counts for a forward pass.
func (m convMapping) traffic(c convShape) convTraffic {
	var t convTraffic
	// Filters: the whole filter set is distributed once per row round
	// (each row group needs every filter again).
	t.WeightWords = c.WeightWords() * int64(m.RowRounds)
	// Input rows: each pass loads the rows feeding SegCols output rows:
	// (SegCols*stride + K - stride) input rows x full width x the
	// channel slice on the array; retransmitted every OC round.
	rowsPerPass := int64(m.SegCols*c.Stride + c.K - c.Stride)
	if rowsPerPass > int64(c.InH+2*c.Pad) {
		rowsPerPass = int64(c.InH + 2*c.Pad)
	}
	slice := int64(c.InC / m.InChSplit)
	if slice < 1 {
		slice = 1
	}
	onArray := slice * int64(m.Sets)
	if onArray > int64(c.InC) {
		onArray = int64(c.InC)
	}
	perPass := rowsPerPass * int64(c.InW+2*c.Pad) * onArray
	t.InputWords = perPass * int64(m.OCRounds) * int64(m.RowRounds) * int64(m.SplitRounds)
	t.OutputWords = c.OutputWords()
	return t
}
