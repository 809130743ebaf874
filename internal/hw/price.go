package hw

import (
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/tensor"
)

// Traffic is one priced access: Bits moved to or from Device.
type Traffic struct {
	Device *mem.Device
	Kind   mem.AccessKind
	Bits   int64
}

// FrameTraffic prices one camera frame of spec: a read of the off-chip DRAM
// camera buffer.
func FrameTraffic(spec nn.ArchSpec) Traffic {
	return Traffic{Device: mem.DRAM(), Kind: mem.Read, Bits: mem.FrameBytes(spec.InputH, spec.InputC) * 8}
}

// CheckpointTraffic prices a durable checkpoint of the given size: an
// STT-MRAM write of its bytes.
func CheckpointTraffic(bytes int64) Traffic {
	return Traffic{Device: mem.STTMRAM(), Kind: mem.Write, Bits: bytes * 8}
}

// StackTraffic is the STT-MRAM price list of one (spec, cfg): the bits each
// pass moves through the stack. Every priced backend charges from it and
// Model.Breakdown sums it, so one pass of the network costs the same bits
// wherever it is charged. A target sync is SnapshotPublishTraffic(cfg).
type StackTraffic struct {
	// Forward is each weighted layer's read per image, convs then FCs
	// (ForwardTable's rows): every stored word, weights and biases.
	Forward []int64
	// Backward and Update follow BackwardTable(cfg)'s rows: the read per
	// image (twice a trained FC's words, for dX and dW; conv rows read
	// none) and the write per weight update (the trained words LayerInMRAM
	// keeps in the stack, so nonzero only under E2E).
	Backward, Update []int64
	// ForwardBits, BackwardBits and UpdateBits are the three sums.
	ForwardBits, BackwardBits, UpdateBits int64
}

// StackTraffic builds the price list of cfg.
func (m *Model) StackTraffic(cfg nn.Config) StackTraffic {
	var t StackTraffic
	for _, c := range m.Arch.Convs {
		t.Forward = append(t.Forward, int64(c.Weights())*m.wordBits())
	}
	for _, f := range m.Arch.FCs {
		t.Forward = append(t.Forward, int64(f.Weights())*m.wordBits())
	}
	for _, bits := range t.Forward {
		t.ForwardBits += bits
	}
	for _, name := range m.TrainedLayerNames(cfg) {
		bits := m.layerWeightWords(name) * m.wordBits()
		read, write := 2*bits, int64(0)
		if isConvLayer(name) {
			read = 0 // conv backward rows price staging and compute only
		}
		if m.LayerInMRAM(name, cfg) {
			write = bits
		}
		t.Backward, t.Update = append(t.Backward, read), append(t.Update, write)
		t.BackwardBits += read
		t.UpdateBits += write
	}
	return t
}

// pricer is what every priced backend shares: the model and its price list
// for one (spec, cfg), the ledger they are charged to, and the running cost.
type pricer struct {
	model   *Model
	traffic StackTraffic
	ledger  *mem.EnergyLedger
	cost    nn.BackendCost
}

func newPricer(spec nn.ArchSpec, cfg nn.Config) pricer {
	m := NewModelFor(spec)
	return pricer{model: m, traffic: m.StackTraffic(cfg), ledger: mem.NewCompactLedger()}
}

// charge records one access and adds its energy and time to the cost: the
// whole price of a backend that models only memory traffic.
func (p *pricer) charge(d *mem.Device, kind mem.AccessKind, bits int64) {
	rec := p.ledger.Record(d, kind, bits)
	p.cost.EnergyMJ += rec.PJ / 1e9
	p.cost.LatencyMS += rec.TimeNS / 1e6
}

// stream charges one pass over rows images: the stack streams the forward
// weight store once per call, however many images the call carries.
func (p *pricer) stream(rows int) {
	p.cost.Inferences += int64(rows)
	p.charge(p.model.MRAM, mem.Read, p.traffic.ForwardBits)
}

// Cost implements nn.CostReporter.
func (p *pricer) Cost() nn.BackendCost { return p.cost }

// Ledger exposes the per-device traffic totals.
func (p *pricer) Ledger() *mem.EnergyLedger { return p.ledger }

// QuantBackend is the "quant" backend: the int16 engine's replies
// (qnn.Backend), each pass priced as one forward weight stream from the
// STT-MRAM stack at Table 1 read timing and energy. InferBatch streams the
// weights once for the whole batch, so the per-request energy and
// weight-stream latency fall as 1/B.
type QuantBackend struct {
	*qnn.Backend
	pricer
}

// NewQuantBackend compiles net into the int16 engine, priced for spec
// under cfg.
func NewQuantBackend(net *nn.Network, spec nn.ArchSpec, cfg nn.Config) (*QuantBackend, error) {
	engine, err := qnn.NewBackend(net)
	if err != nil {
		return nil, err
	}
	return &QuantBackend{Backend: engine, pricer: newPricer(spec, cfg)}, nil
}

// Infer implements nn.Backend.
func (b *QuantBackend) Infer(obs *tensor.Tensor) []float32 {
	q := b.Backend.Infer(obs)
	b.stream(1)
	return q
}

// InferBatch implements nn.BatchInferrer.
func (b *QuantBackend) InferBatch(batch *tensor.Tensor) []float32 {
	q := b.Backend.InferBatch(batch)
	b.stream(batch.Dim(0))
	return q
}

// QuantTrainBackend is the "quant-train" backend: the fixed-point training
// engine (qnn.TrainBackend), whose online and target networks live as
// integer words in the modeled STT-MRAM stack, priced off the price list.
// What is priced is the modeled chip's serial per-image dataflow (Fig.
// 3(b)), not the host code: Train(n, live) is n+live forward images, n
// backward images and one weight update; Infer is one forward image; a
// target sync is a policy publish. The host computes less — the frozen
// prefix runs once per captured frame, and a Train fed boundary features
// enters at the training boundary — yet is charged what the same batch
// costs as frames, so the cost reads the same whichever way rows arrive.
// BoundaryFeatures and GreedyFrom charge nothing: the weight reads of acting
// are not priced yet.
type QuantTrainBackend struct {
	*qnn.TrainBackend
	pricer
	sync []Traffic
}

// NewQuantTrainBackend compiles net into the training engine, priced for
// spec under cfg. The network's SetConfig topology decides the frozen
// prefix; cfg should be that topology.
// TestRunOnlineQuantTrainGolden's trainTap wraps it.
func NewQuantTrainBackend(net *nn.Network, spec nn.ArchSpec, cfg nn.Config) (*QuantTrainBackend, error) {
	engine, err := qnn.NewTrainBackend(net, qnn.TrainOptions{})
	if err != nil {
		return nil, err
	}
	p := newPricer(spec, cfg)
	return &QuantTrainBackend{TrainBackend: engine, pricer: p, sync: p.model.SnapshotPublishTraffic(cfg)}, nil
}

// Infer implements nn.Backend.
func (b *QuantTrainBackend) Infer(obs *tensor.Tensor) []float32 {
	q := b.TrainBackend.Infer(obs)
	b.stream(1)
	return q
}

// Train implements nn.TrainableBackend. A malformed batch panics in the
// engine before anything is charged.
func (b *QuantTrainBackend) Train(batch nn.TrainBatch) float64 {
	mse := b.TrainBackend.Train(batch)
	n, live := int64(len(batch.Actions)), int64(0)
	if n == 0 {
		return mse
	}
	for _, done := range batch.Done {
		if !done {
			live++
		}
	}
	t, mram := &b.traffic, b.model.MRAM
	b.charge(mram, mem.Read, (n+live)*t.ForwardBits+n*t.BackwardBits)
	b.charge(mram, mem.Write, t.UpdateBits)
	return mse
}

// SyncTarget implements nn.TrainableBackend, charged as a policy publish.
func (b *QuantTrainBackend) SyncTarget() {
	b.TrainBackend.SyncTarget()
	for _, t := range b.sync {
		b.charge(t.Device, t.Kind, t.Bits)
	}
}

func init() {
	register("quant", NewQuantBackend)
	register("quant-train", NewQuantTrainBackend)
	register("systolic", NewSystolicBackend)
}

func register[B nn.Backend](name string, build func(*nn.Network, nn.ArchSpec, nn.Config) (B, error)) {
	if err := nn.RegisterBackend(name, func(net *nn.Network, spec nn.ArchSpec, cfg nn.Config) (nn.Backend, error) {
		return build(net, spec, cfg)
	}); err != nil {
		panic(err)
	}
}
