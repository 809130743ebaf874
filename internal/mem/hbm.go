package mem

// HBMInterface models the stacked-memory I/O system of Fig. 4: "1024 I/O
// connections exist between STT-MRAM stack and global buffer and bandwidth
// of each I/O is 2 Gbit/s", following the JEDEC HBM organization with the
// DRAM dies replaced by STT-MRAM.
type HBMInterface struct {
	// IOs is the number of I/O connections (1024).
	IOs int
	// GbpsPerIO is the per-pin bandwidth (2 Gbit/s).
	GbpsPerIO float64
}

// DefaultHBM returns the paper's interface parameters.
func DefaultHBM() HBMInterface {
	return HBMInterface{IOs: 1024, GbpsPerIO: 2}
}

// PeakBandwidthGbps returns the aggregate pin bandwidth. TestHBMInterface
// pins it at 2048 Gbps.
func (h HBMInterface) PeakBandwidthGbps() float64 {
	return float64(h.IOs) * h.GbpsPerIO
}

// TransferTimeNS returns the pin-limited time to move bits, the lower bound
// the row-access model of Device can never beat.
func (h HBMInterface) TransferTimeNS(bits int64) float64 {
	return float64(bits) / h.PeakBandwidthGbps()
}

// DDRLink models the camera/DRAM connection ("the camera buffer is
// connected to the logic die using a DDR6 link").
type DDRLink struct {
	// GBps is the link bandwidth in gigabytes per second.
	GBps float64
	// PJPerBit is the link transfer energy.
	PJPerBit float64
}

// DefaultDDRLink returns a DDR6-class point-to-point link.
func DefaultDDRLink() DDRLink {
	return DDRLink{GBps: 38.4, PJPerBit: 5}
}

// TransferTimeNS returns the time to move the given number of bytes.
func (l DDRLink) TransferTimeNS(bytes int64) float64 {
	return float64(bytes) / l.GBps
}

// TransferEnergyPJ returns the energy to move the given number of bytes.
func (l DDRLink) TransferEnergyPJ(bytes int64) float64 {
	return float64(bytes*8) * l.PJPerBit
}

// FrameBytes returns the size of one camera frame at the paper's network
// input (n x n pixels, channels, 16-bit fixed point).
func FrameBytes(side, channels int) int64 {
	return int64(side) * int64(side) * int64(channels) * 2
}
