// Package mem models the memory devices of the paper's embedded platform:
// the 3D-stacked STT-MRAM (HBM organization, Table 1 parameters), the
// on-die SRAM global buffer, and the off-chip DRAM camera buffer reached
// over a DDR-class link. Each device exposes row-access timing and
// per-bit energy; an EnergyLedger accumulates access statistics for an
// experiment.
package mem

import (
	"fmt"
	"sort"
)

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Device models one memory with row-granular access timing and per-bit
// energy. Latency is counted per row access (non-pipelined, the
// conservative model that reproduces the paper's FC-layer latencies), and
// energy per bit moved.
type Device struct {
	// Name identifies the device ("STT-MRAM", "SRAM", ...).
	Name string
	// RowBits is the access granularity in bits (the STT-MRAM stack
	// moves 1024 bits per access through its 1024 I/Os).
	RowBits int
	// ReadLatencyNS / WriteLatencyNS are per-row access times.
	ReadLatencyNS, WriteLatencyNS float64
	// ReadEnergyPJPerBit / WriteEnergyPJPerBit include IO, peripheral
	// and array energy, as in Table 1.
	ReadEnergyPJPerBit, WriteEnergyPJPerBit float64
	// CapacityBytes is the device size; 0 means unbounded.
	CapacityBytes int64
}

// STTMRAM returns the paper's STT-MRAM stack: Table 1 exactly (write 30 ns,
// read 10 ns, 4.5 pJ/bit write, 0.7 pJ/bit read) behind the 1024-I/O HBM
// interface of Fig. 4.
func STTMRAM() *Device {
	return &Device{
		Name:               "STT-MRAM",
		RowBits:            1024,
		ReadLatencyNS:      10,
		WriteLatencyNS:     30,
		ReadEnergyPJPerBit: 0.7, WriteEnergyPJPerBit: 4.5,
		CapacityBytes: 256 << 20,
	}
}

// SRAM returns the on-die global buffer: single-cycle row access at 1 GHz
// over the 4096-bit PE-row interface, with typical 15 nm on-die SRAM
// energies (well below the STT-MRAM's, which is the asymmetry the paper's
// co-design exploits).
func SRAM(capacityBytes int64) *Device {
	return &Device{
		Name:               "SRAM",
		RowBits:            4096,
		ReadLatencyNS:      1,
		WriteLatencyNS:     1,
		ReadEnergyPJPerBit: 0.08, WriteEnergyPJPerBit: 0.08,
		CapacityBytes: capacityBytes,
	}
}

// DRAM returns the off-chip camera-buffer DRAM behind the DDR6-class link
// of Fig. 4(a).
func DRAM() *Device {
	return &Device{
		Name:               "DRAM",
		RowBits:            512,
		ReadLatencyNS:      15,
		WriteLatencyNS:     15,
		ReadEnergyPJPerBit: 3.0, WriteEnergyPJPerBit: 3.0,
		CapacityBytes: 1 << 30,
	}
}

// Rows returns how many row accesses moving the given number of bits costs.
func (d *Device) Rows(bits int64) int64 {
	if bits <= 0 {
		return 0
	}
	rb := int64(d.RowBits)
	return (bits + rb - 1) / rb
}

// AccessTimeNS returns the serialized time to move bits in row-granular
// accesses.
func (d *Device) AccessTimeNS(kind AccessKind, bits int64) float64 {
	lat := d.ReadLatencyNS
	if kind == Write {
		lat = d.WriteLatencyNS
	}
	return float64(d.Rows(bits)) * lat
}

// EnergyPJ returns the energy to move bits.
func (d *Device) EnergyPJ(kind AccessKind, bits int64) float64 {
	e := d.ReadEnergyPJPerBit
	if kind == Write {
		e = d.WriteEnergyPJPerBit
	}
	return float64(bits) * e
}

// Fits reports whether a payload of the given bytes fits in the device.
func (d *Device) Fits(bytes int64) bool {
	return d.CapacityBytes == 0 || bytes <= d.CapacityBytes
}

// AccessRecord is one ledger entry.
type AccessRecord struct {
	Device string
	Kind   AccessKind
	Bits   int64
	TimeNS float64
	PJ     float64
}

// EnergyLedger accumulates the traffic of an experiment per device.
//
// A ledger is NOT safe for concurrent use. The parallel experiment engine
// gives every run its own ledger and merges them (Merge) after the runs
// drain, in run-index order — the per-worker-then-merge pattern that keeps
// accumulation race-free without putting a lock on the per-access hot path,
// and keeps the merged totals deterministic for every worker count.
type EnergyLedger struct {
	records []AccessRecord
	totals  map[string]*LedgerTotal
	// compact drops the per-access record log and keeps only the totals,
	// bounding memory when a backend charges every camera frame of a long
	// flight.
	compact bool
}

// LedgerTotal summarizes one device's traffic.
type LedgerTotal struct {
	ReadBits, WriteBits int64
	TimeNS              float64
	EnergyPJ            float64
}

// Add merges another total.
func (t *LedgerTotal) Add(o LedgerTotal) {
	t.ReadBits += o.ReadBits
	t.WriteBits += o.WriteBits
	t.TimeNS += o.TimeNS
	t.EnergyPJ += o.EnergyPJ
}

// NewLedger creates an empty ledger.
func NewLedger() *EnergyLedger {
	return &EnergyLedger{totals: make(map[string]*LedgerTotal)}
}

// NewCompactLedger creates a ledger that accumulates per-device totals but
// drops the raw access log, for charging every frame of a long run.
func NewCompactLedger() *EnergyLedger {
	l := NewLedger()
	l.compact = true
	return l
}

// Record logs one access and returns its cost.
func (l *EnergyLedger) Record(d *Device, kind AccessKind, bits int64) AccessRecord {
	r := AccessRecord{
		Device: d.Name, Kind: kind, Bits: bits,
		TimeNS: d.AccessTimeNS(kind, bits),
		PJ:     d.EnergyPJ(kind, bits),
	}
	if !l.compact {
		l.records = append(l.records, r)
	}
	t := l.totals[d.Name]
	if t == nil {
		t = &LedgerTotal{}
		l.totals[d.Name] = t
	}
	if kind == Write {
		t.WriteBits += bits
	} else {
		t.ReadBits += bits
	}
	t.TimeNS += r.TimeNS
	t.EnergyPJ += r.PJ
	return r
}

// Total returns the accumulated cost for one device (zero value if the
// device never appears).
func (l *EnergyLedger) Total(device string) LedgerTotal {
	if t := l.totals[device]; t != nil {
		return *t
	}
	return LedgerTotal{}
}

// TotalEnergyPJ sums energy across devices, in sorted device order so the
// float sum is identical on every call (map iteration order is not).
func (l *EnergyLedger) TotalEnergyPJ() float64 {
	var s float64
	for _, name := range l.Devices() {
		s += l.totals[name].EnergyPJ
	}
	return s
}

// TotalTimeNS sums serialized access time across devices, in sorted device
// order. TestLedgerMergeMatchesSerial pins merged ledgers equal through it.
func (l *EnergyLedger) TotalTimeNS() float64 {
	var s float64
	for _, name := range l.Devices() {
		s += l.totals[name].TimeNS
	}
	return s
}

// Records returns the raw access log (nil for compact ledgers).
// TestLedgerAccumulates and TestLedgerMergeMatchesSerial read it.
func (l *EnergyLedger) Records() []AccessRecord { return l.records }

// Devices returns the names of every device that appears in the ledger,
// sorted, so summaries iterate deterministically.
func (l *EnergyLedger) Devices() []string {
	names := make([]string, 0, len(l.totals))
	for name := range l.totals {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Merge folds another ledger's traffic into l: totals are summed per device
// and o's access log (if any) is appended — unless l is compact, which
// keeps totals only. Merging the per-run ledgers of a
// parallel sweep in run-index order makes the totals deterministic for
// every worker count — shard contents and merge order are both fixed, so
// the float sums always see the same operands in the same grouping. o is
// left unchanged.
func (l *EnergyLedger) Merge(o *EnergyLedger) {
	if o == nil {
		return
	}
	if !l.compact {
		l.records = append(l.records, o.records...)
	}
	for _, name := range o.Devices() {
		src := o.totals[name]
		t := l.totals[name]
		if t == nil {
			t = &LedgerTotal{}
			l.totals[name] = t
		}
		t.Add(*src)
	}
}

// String renders a per-device summary.
func (l *EnergyLedger) String() string {
	s := ""
	for _, name := range l.Devices() {
		t := l.totals[name]
		s += fmt.Sprintf("%s: read %d b, write %d b, %.1f ns, %.1f pJ\n",
			name, t.ReadBits, t.WriteBits, t.TimeNS, t.EnergyPJ)
	}
	return s
}
