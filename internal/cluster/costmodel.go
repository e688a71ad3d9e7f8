package cluster

import (
	"fmt"
	"time"
)

// CostModel holds the per-request processing costs of the paper's
// simulation model (Section 3.1), "derived by performing measurements on a
// 300 MHz Pentium II machine running FreeBSD 2.2.5 and an aggressive
// experimental web server":
//
//   - connection establishment and teardown cost 145 µs of CPU time each;
//   - transmit processing incurs 40 µs per 512 bytes;
//   - an 8 KB document is therefore served from the main-memory cache at
//     ≈ 1075 requests/sec (145+145+16·40 = 930 µs of CPU);
//   - a disk read has a 28 ms initial latency (2 seeks + rotation) and
//     transfers at 410 µs per 4 KB (≈ 10 MB/s peak);
//   - files larger than 44 KB pay an additional 14 ms (seek + rotation)
//     for every 44 KB of length in excess of 44 KB, 44 KB being the
//     measured average disk transfer size between seeks;
//   - large reads are blocked at 44 KB, with the transmission of each
//     block immediately following its disk read.
type CostModel struct {
	// ConnEstablish and ConnTeardown are per-connection CPU costs.
	ConnEstablish time.Duration
	ConnTeardown  time.Duration

	// TransmitPerUnit is the CPU cost to transmit each TransmitUnit bytes
	// (rounded up).
	TransmitPerUnit time.Duration
	TransmitUnit    int64

	// DiskFirstLatency is the seek + rotational latency of the first
	// block of a read; DiskExtraLatency is charged for each subsequent
	// DiskBlock-sized block.
	DiskFirstLatency time.Duration
	DiskExtraLatency time.Duration

	// DiskTransferPerUnit is the media transfer time per DiskTransferUnit
	// bytes (rounded up).
	DiskTransferPerUnit time.Duration
	DiskTransferUnit    int64

	// DiskBlock is the blocking factor for large reads.
	DiskBlock int64

	// HandoffCost is the CPU charged to a back end for receiving a
	// connection handoff — the handoff-protocol processing the paper's
	// Table 2 measures on the prototype (a few hundred microseconds on
	// the 300 MHz Pentium II class hardware of the cost model). It is
	// paid once per connection under per-connection dispatch and once
	// per back-end *switch* under per-request re-handoff, which is the
	// CPU side of the locality-vs-affinity trade-off the phttp
	// experiment sweeps.
	//
	// Crucially this models handoff *protocol* processing only, not TCP
	// establishment: the live front end's pooled handoff path
	// (internal/frontend/pool.go) exists to keep reality aligned with
	// that assumption. BenchmarkHandoffDial on the prototype measures a
	// fresh dial+handoff round trip at roughly twice the cost of a
	// pooled checkout+handoff (≈87 µs vs ≈41 µs wall-clock on a 2.1 GHz
	// Xeon over loopback, measured at PR 5) — without pooling, the dial
	// would dominate the modeled HandoffCost and the simulator's
	// re-handoff economics would flatter the implementation.
	HandoffCost time.Duration

	// CPUSpeed scales CPU costs down (2.0 = a CPU twice as fast). Disk
	// costs are unaffected, reproducing the paper's Figure 11/12 sweeps
	// where "CPU speeds are expected to improve at a much faster rate
	// than disk speeds".
	CPUSpeed float64
}

// DefaultCostModel returns the paper's calibrated 300 MHz Pentium II model.
func DefaultCostModel() CostModel {
	return CostModel{
		ConnEstablish:       145 * time.Microsecond,
		ConnTeardown:        145 * time.Microsecond,
		TransmitPerUnit:     40 * time.Microsecond,
		TransmitUnit:        512,
		DiskFirstLatency:    28 * time.Millisecond,
		DiskExtraLatency:    14 * time.Millisecond,
		DiskTransferPerUnit: 410 * time.Microsecond,
		DiskTransferUnit:    4096,
		DiskBlock:           44 * 1024,
		HandoffCost:         DefaultHandoffCost,
		CPUSpeed:            1.0,
	}
}

// DefaultHandoffCost is the per-handoff CPU charge used by
// DefaultCostModel, calibrated to the order of magnitude of the paper's
// Table 2 handoff measurements (comparable to connection establishment).
const DefaultHandoffCost = 300 * time.Microsecond

// Validate reports whether the model is usable.
func (m CostModel) Validate() error {
	switch {
	case m.ConnEstablish < 0 || m.ConnTeardown < 0:
		return fmt.Errorf("cluster: negative connection cost")
	case m.TransmitPerUnit < 0 || m.TransmitUnit < 1:
		return fmt.Errorf("cluster: invalid transmit cost (%v per %d bytes)", m.TransmitPerUnit, m.TransmitUnit)
	case m.DiskFirstLatency < 0 || m.DiskExtraLatency < 0:
		return fmt.Errorf("cluster: negative disk latency")
	case m.DiskTransferPerUnit < 0 || m.DiskTransferUnit < 1:
		return fmt.Errorf("cluster: invalid disk transfer cost")
	case m.DiskBlock < 1:
		return fmt.Errorf("cluster: DiskBlock = %d, need >= 1", m.DiskBlock)
	case m.HandoffCost < 0:
		return fmt.Errorf("cluster: negative HandoffCost")
	case m.CPUSpeed <= 0:
		return fmt.Errorf("cluster: CPUSpeed = %v, need > 0", m.CPUSpeed)
	}
	return nil
}

// WithCPUSpeed returns a copy of the model with the CPU speed multiplier
// set, for the Figure 11/12 scaling experiments.
func (m CostModel) WithCPUSpeed(speed float64) CostModel {
	m.CPUSpeed = speed
	return m
}

// scaledBy returns a copy of the model for a node serving at the given
// speed multiplier: every duration — CPU, disk, and handoff — shrinks by
// the factor, so a speed-2 node completes identical work in half the
// simulated time. This is the whole-node heterogeneity knob behind
// Config.Profiles, distinct from CPUSpeed, which scales only CPU costs
// fleet-wide for the Figure 11/12 sweeps.
func (m CostModel) scaledBy(speed float64) CostModel {
	if speed == 1.0 {
		return m
	}
	div := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / speed)
	}
	m.ConnEstablish = div(m.ConnEstablish)
	m.ConnTeardown = div(m.ConnTeardown)
	m.TransmitPerUnit = div(m.TransmitPerUnit)
	m.DiskFirstLatency = div(m.DiskFirstLatency)
	m.DiskExtraLatency = div(m.DiskExtraLatency)
	m.DiskTransferPerUnit = div(m.DiskTransferPerUnit)
	m.HandoffCost = div(m.HandoffCost)
	return m
}

// cpu scales a CPU cost by the configured CPU speed.
func (m CostModel) cpu(d time.Duration) time.Duration {
	if m.CPUSpeed == 1.0 {
		return d
	}
	return time.Duration(float64(d) / m.CPUSpeed)
}

// EstablishTime returns the CPU time to accept a connection.
func (m CostModel) EstablishTime() time.Duration { return m.cpu(m.ConnEstablish) }

// TeardownTime returns the CPU time to close a connection.
func (m CostModel) TeardownTime() time.Duration { return m.cpu(m.ConnTeardown) }

// HandoffTime returns the CPU time for a back end to accept a connection
// handoff.
func (m CostModel) HandoffTime() time.Duration { return m.cpu(m.HandoffCost) }

// TransmitTime returns the CPU time to transmit size bytes.
func (m CostModel) TransmitTime(size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	units := (size + m.TransmitUnit - 1) / m.TransmitUnit
	return m.cpu(time.Duration(units) * m.TransmitPerUnit)
}

// Blocks splits a file into the DiskBlock-sized read units of the paper's
// blocked-read model. A zero-size file still occupies one (empty) block,
// paying the initial disk latency.
func (m CostModel) Blocks(size int64) []int64 {
	if size <= 0 {
		return []int64{0}
	}
	n := (size + m.DiskBlock - 1) / m.DiskBlock
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = m.DiskBlock
	}
	if rem := size % m.DiskBlock; rem != 0 {
		blocks[n-1] = rem
	}
	return blocks
}

// BlockReadTime returns the disk time for the i'th block of a read:
// seek/rotation latency (full for the first block, the inter-chunk extra
// for subsequent ones) plus media transfer time.
func (m CostModel) BlockReadTime(i int, blockSize int64) time.Duration {
	lat := m.DiskFirstLatency
	if i > 0 {
		lat = m.DiskExtraLatency
	}
	if blockSize <= 0 {
		return lat
	}
	units := (blockSize + m.DiskTransferUnit - 1) / m.DiskTransferUnit
	return lat + time.Duration(units)*m.DiskTransferPerUnit
}

// DiskReadTime returns the total disk time to read a whole file of the
// given size (the sum over its blocks).
func (m CostModel) DiskReadTime(size int64) time.Duration {
	var total time.Duration
	for i, b := range m.Blocks(size) {
		total += m.BlockReadTime(i, b)
	}
	return total
}

// CachedServiceTime returns the CPU time to serve a request entirely from
// the main-memory cache: establish + transmit + teardown.
func (m CostModel) CachedServiceTime(size int64) time.Duration {
	return m.EstablishTime() + m.TransmitTime(size) + m.TeardownTime()
}
