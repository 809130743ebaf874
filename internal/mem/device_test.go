package mem

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1Parameters(t *testing.T) {
	d := STTMRAM()
	// Table 1 of the paper, exactly.
	if d.WriteLatencyNS != 30 || d.ReadLatencyNS != 10 {
		t.Errorf("latencies %v/%v, want 30/10 ns", d.WriteLatencyNS, d.ReadLatencyNS)
	}
	if d.WriteEnergyPJPerBit != 4.5 || d.ReadEnergyPJPerBit != 0.7 {
		t.Errorf("energies %v/%v, want 4.5/0.7 pJ/bit", d.WriteEnergyPJPerBit, d.ReadEnergyPJPerBit)
	}
	if d.RowBits != 1024 {
		t.Errorf("row bits %d, want 1024 (HBM I/O count)", d.RowBits)
	}
}

func TestWriteAsymmetry(t *testing.T) {
	// The core premise of the paper: NVM writes are 3x slower and ~6.4x
	// more energetic than reads.
	d := STTMRAM()
	if d.WriteLatencyNS/d.ReadLatencyNS != 3 {
		t.Error("write/read latency ratio must be 3")
	}
	ratio := d.WriteEnergyPJPerBit / d.ReadEnergyPJPerBit
	if math.Abs(ratio-4.5/0.7) > 1e-12 {
		t.Errorf("write/read energy ratio = %v", ratio)
	}
	// And SRAM has no such asymmetry.
	s := SRAM(30 << 20)
	if s.WriteLatencyNS != s.ReadLatencyNS {
		t.Error("SRAM must be read/write symmetric")
	}
	if s.WriteEnergyPJPerBit >= d.WriteEnergyPJPerBit/10 {
		t.Error("SRAM write energy must be far below STT-MRAM write energy")
	}
}

func TestRowsRounding(t *testing.T) {
	d := STTMRAM()
	cases := []struct {
		bits int64
		rows int64
	}{
		{0, 0}, {1, 1}, {1024, 1}, {1025, 2}, {2048, 2}, {-5, 0},
	}
	for _, c := range cases {
		if got := d.Rows(c.bits); got != c.rows {
			t.Errorf("Rows(%d) = %d, want %d", c.bits, got, c.rows)
		}
	}
}

func TestAccessTimeMatchesPaperFCLatency(t *testing.T) {
	// FC1 of the paper's network: 37,752,832 weights x 16 bit streamed
	// from the MRAM stack. The paper reports 5.365 ms forward latency;
	// the row-access model gives 5.90 ms — within 10%.
	d := STTMRAM()
	bits := int64(37752832) * 16
	got := d.AccessTimeNS(Read, bits) / 1e6 // ms
	if math.Abs(got-5.90) > 0.01 {
		t.Errorf("FC1 stream time = %.3f ms, want ~5.90", got)
	}
	if math.Abs(got-5.365)/5.365 > 0.11 {
		t.Errorf("FC1 stream time %.3f ms deviates more than 11%% from paper 5.365", got)
	}
}

func TestEnergyPerBit(t *testing.T) {
	d := STTMRAM()
	if got := d.EnergyPJ(Write, 1000); got != 4500 {
		t.Errorf("write energy = %v pJ", got)
	}
	if got := d.EnergyPJ(Read, 1000); got != 700 {
		t.Errorf("read energy = %v pJ", got)
	}
}

func TestFitsCapacity(t *testing.T) {
	d := SRAM(30 << 20)
	if !d.Fits(29 << 20) {
		t.Error("29 MB must fit in 30 MB")
	}
	if d.Fits(31 << 20) {
		t.Error("31 MB must not fit in 30 MB")
	}
	unbounded := &Device{Name: "x", RowBits: 8}
	if !unbounded.Fits(1 << 40) {
		t.Error("zero capacity means unbounded")
	}
}

func TestHBMInterface(t *testing.T) {
	h := DefaultHBM()
	if h.PeakBandwidthGbps() != 2048 {
		t.Errorf("peak = %v Gbps, want 2048 (1024 IOs x 2 Gbps)", h.PeakBandwidthGbps())
	}
	// The row-access model must never beat the pin bandwidth.
	d := STTMRAM()
	bits := int64(1 << 20)
	if h.TransferTimeNS(bits) > d.AccessTimeNS(Read, bits) {
		t.Error("pin-limited time must lower-bound row-access time")
	}
}

func TestDDRLinkFrame(t *testing.T) {
	l := DefaultDDRLink()
	// One 227x227x3 16-bit frame.
	fb := FrameBytes(227, 3)
	if fb != 227*227*3*2 {
		t.Errorf("frame bytes = %d", fb)
	}
	ns := l.TransferTimeNS(fb)
	if ns <= 0 || ns > 1e6 {
		t.Errorf("frame transfer = %v ns, implausible", ns)
	}
	if l.TransferEnergyPJ(fb) != float64(fb*8)*l.PJPerBit {
		t.Error("link energy wrong")
	}
}

func TestLedgerAccumulates(t *testing.T) {
	l := NewLedger()
	d := STTMRAM()
	s := SRAM(30 << 20)
	l.Record(d, Read, 2048)
	l.Record(d, Write, 1024)
	l.Record(s, Write, 4096)

	td := l.Total("STT-MRAM")
	if td.ReadBits != 2048 || td.WriteBits != 1024 {
		t.Errorf("MRAM bits = %+v", td)
	}
	if math.Abs(td.TimeNS-(20+30)) > 1e-12 {
		t.Errorf("MRAM time = %v", td.TimeNS)
	}
	if math.Abs(td.EnergyPJ-(2048*0.7+1024*4.5)) > 1e-9 {
		t.Errorf("MRAM energy = %v", td.EnergyPJ)
	}
	if got := l.Total("SRAM").WriteBits; got != 4096 {
		t.Errorf("SRAM bits = %d", got)
	}
	if l.Total("nope") != (LedgerTotal{}) {
		t.Error("unknown device must be zero")
	}
	if len(l.Records()) != 3 {
		t.Errorf("%d records", len(l.Records()))
	}
	if !strings.Contains(l.String(), "STT-MRAM") {
		t.Error("summary must mention devices")
	}
}

func TestLedgerTotalsConsistent(t *testing.T) {
	err := quick.Check(func(sizes []uint16) bool {
		l := NewLedger()
		d := STTMRAM()
		var wantE, wantT float64
		for i, s := range sizes {
			kind := Read
			if i%2 == 1 {
				kind = Write
			}
			r := l.Record(d, kind, int64(s))
			wantE += r.PJ
			wantT += r.TimeNS
		}
		return math.Abs(l.TotalEnergyPJ()-wantE) < 1e-6 && math.Abs(l.TotalTimeNS()-wantT) < 1e-6
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
