package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// latWindow is how many recent request latencies the percentile window
// keeps. 4096 bounds memory on a long-running daemon while keeping p99
// meaningful at serving rates.
const latWindow = 4096

// stats is the mutex-guarded counter block behind GET /statsz.
type stats struct {
	mu         sync.Mutex
	served     int64
	rejected   int64
	reloads    int64
	adoptFails int64
	batches    int64
	hist       []int64 // hist[b-1] = batches of size b
	// kernelBatches counts batches executed through the backend's batched
	// kernel (one GEMM per layer for the whole batch); serialBatches those
	// that ran per-sample Infer (size-1 batches, or a backend without a
	// batched entry). Together they attribute the histogram to a kernel.
	kernelBatches int64
	serialBatches int64
	cost          nn.BackendCost
	lat           []time.Duration // ring buffer of recent request latencies
	latNext       int
	latFull       bool

	// The /v1/act decode counters are atomics outside mu: every request
	// adds to them before it reaches the queue.
	actDecodes   atomic.Int64 // bodies read in full and decoded, accepted or not
	actFallbacks atomic.Int64 // of those, the ones the single pass handed to encoding/json
	actDecodeNS  atomic.Int64 // time decoding them, body read excluded
}

func newStats(maxBatch int) *stats {
	return &stats{hist: make([]int64, maxBatch), lat: make([]time.Duration, 0, latWindow)}
}

// observe records one completed request's end-to-end latency.
func (st *stats) observe(d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.served++
	if len(st.lat) < latWindow {
		st.lat = append(st.lat, d)
		return
	}
	st.latFull = true
	st.lat[st.latNext] = d
	st.latNext = (st.latNext + 1) % latWindow
}

// actDecoded records one /v1/act body decode.
func (st *stats) actDecoded(d time.Duration, fellBack bool) {
	st.actDecodes.Add(1)
	st.actDecodeNS.Add(int64(d))
	if fellBack {
		st.actFallbacks.Add(1)
	}
}

// reject counts one queue-full rejection.
func (st *stats) reject() {
	st.mu.Lock()
	st.rejected++
	st.mu.Unlock()
}

// reloaded counts one successful policy publish after the initial one.
func (st *stats) reloaded() {
	st.mu.Lock()
	st.reloads++
	st.mu.Unlock()
}

// adoptFailed counts a worker failing to adopt or recompile a published
// policy (it keeps serving the last good one).
func (st *stats) adoptFailed() {
	st.mu.Lock()
	st.adoptFails++
	st.mu.Unlock()
}

// batchDone records one executed batch and the backend cost it charged: a
// batch of more than one ran the backend's batched pass.
func (st *stats) batchDone(size int, delta nn.BackendCost) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.batches++
	if size >= 1 && size <= len(st.hist) {
		st.hist[size-1]++
	}
	if size > 1 {
		st.kernelBatches++
	} else {
		st.serialBatches++
	}
	st.cost.Add(delta)
}

// DeviceTotal is one memory device's share of the serving traffic, the JSON
// shape of the /statsz devices map.
type DeviceTotal struct {
	ReadBits  int64   `json:"read_bits"`
	WriteBits int64   `json:"write_bits"`
	TimeNS    float64 `json:"time_ns"`
	EnergyPJ  float64 `json:"energy_pj"`
}

// Stats is the /statsz payload: service counters, batching behavior, tail
// latency, and the merged energy ledger.
type Stats struct {
	Backend       string  `json:"backend"`
	Workers       int     `json:"workers"`
	PolicyVersion uint64  `json:"policy_version"`
	Reloads       int64   `json:"reloads"`
	AdoptFailures int64   `json:"adopt_failures"`
	Served        int64   `json:"served"`
	Rejected      int64   `json:"rejected"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	Batches       int64   `json:"batches"`
	MeanBatch     float64 `json:"mean_batch"`
	// BatchHist maps batch size → count, sizes with zero count omitted.
	BatchHist map[int]int64 `json:"batch_hist"`
	// BatchSource names the kernel that serves coalesced batches
	// ("quant/InferBatch": every backend has a batched pass), and the two
	// counters split the histogram between it and the lone requests that
	// ran Infer — the gate log's answer to "did the burst actually hit the
	// batched kernel?".
	BatchSource    string  `json:"batch_source"`
	BatchedBatches int64   `json:"batched_batches"`
	SerialBatches  int64   `json:"serial_batches"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	// ActDecoded counts POST /v1/act bodies read in full and decoded,
	// accepted or refused; ActFallbacks those among them that were not the
	// canonical {"obs":[numbers]} shape and went through encoding/json — zero
	// when every client sends what the load generators send. ActDecodeUsMean
	// is the mean decode time per body, the read off the socket excluded.
	ActDecoded      int64   `json:"act_decoded"`
	ActFallbacks    int64   `json:"act_fallbacks"`
	ActDecodeUsMean float64 `json:"act_decode_us_mean"`
	// Backend-modeled inference cost (zero for the float backend).
	Inferences       int64   `json:"inferences"`
	ModeledEnergyMJ  float64 `json:"modeled_energy_mj"`
	ModeledLatencyMS float64 `json:"modeled_latency_ms"`
	// Devices breaks the merged ledger down per memory device: request
	// frames on the off-chip link, snapshot publishes, and the cost-modeled
	// backends' per-inference traffic.
	Devices       map[string]DeviceTotal `json:"devices"`
	TotalEnergyMJ float64                `json:"total_energy_mj"`
}

// Stats assembles a consistent snapshot of the serving counters and the
// merged energy ledger. Safe to call at any time, including mid-batch — each
// worker's ledger is read under that worker's lock.
func (s *Server) Stats() Stats {
	merged := mem.NewCompactLedger()
	s.ledger.MergeInto(merged)
	for _, w := range s.workers {
		w.mergeLedger(merged)
	}

	st := s.stats
	st.mu.Lock()
	out := Stats{
		Backend:          s.cfg.Backend,
		Workers:          s.cfg.Workers,
		PolicyVersion:    s.board.Version(),
		Reloads:          st.reloads,
		AdoptFailures:    st.adoptFails,
		Served:           st.served,
		Rejected:         st.rejected,
		QueueDepth:       len(s.queue),
		QueueCap:         s.cfg.QueueDepth,
		Batches:          st.batches,
		BatchHist:        map[int]int64{},
		BatchSource:      s.cfg.Backend + "/InferBatch",
		BatchedBatches:   st.kernelBatches,
		SerialBatches:    st.serialBatches,
		Inferences:       st.cost.Inferences,
		ModeledEnergyMJ:  st.cost.EnergyMJ,
		ModeledLatencyMS: st.cost.LatencyMS,
	}
	var inBatches int64
	for i, c := range st.hist {
		if c > 0 {
			out.BatchHist[i+1] = c
			inBatches += int64(i+1) * c
		}
	}
	if st.batches > 0 {
		out.MeanBatch = float64(inBatches) / float64(st.batches)
	}
	lats := append([]time.Duration(nil), st.lat...)
	st.mu.Unlock()

	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out.P50Ms = float64(lats[len(lats)/2].Microseconds()) / 1e3
		out.P99Ms = float64(lats[len(lats)*99/100].Microseconds()) / 1e3
	}

	out.ActDecoded = st.actDecodes.Load()
	out.ActFallbacks = st.actFallbacks.Load()
	if out.ActDecoded > 0 {
		out.ActDecodeUsMean = float64(st.actDecodeNS.Load()) / 1e3 / float64(out.ActDecoded)
	}

	out.Devices = map[string]DeviceTotal{}
	for _, name := range merged.Devices() {
		t := merged.Total(name)
		out.Devices[name] = DeviceTotal{
			ReadBits: t.ReadBits, WriteBits: t.WriteBits,
			TimeNS: t.TimeNS, EnergyPJ: t.EnergyPJ,
		}
	}
	out.TotalEnergyMJ = merged.TotalEnergyPJ() / 1e9
	return out
}
