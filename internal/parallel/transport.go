package parallel

import (
	"time"

	"opaq/internal/simnet"
)

// Transport is the communication substrate one rank of the parallel engine
// runs on. The global-merge algorithms (bitonic merge-split and PSRS-style
// sample merge) are written purely against this interface, and exactly two
// machines implement it:
//
//   - The simulated machine of internal/simnet (*simnet.Proc): messages move
//     real data between goroutines while a two-level cost model (α compute,
//     τ message startup, μ per word) advances private simulated clocks. This
//     is the transport behind Run and the paper's Tables 8/11/12 and
//     Figures 3–6; Clock, Compute and Charge are meaningful and the
//     execution time of a program is the maximum clock over ranks.
//
//   - The real in-process transport (this package, used by BuildSharded):
//     goroutines connected by channels with no cost model at all. Compute
//     and Charge are no-ops and Clock always reports zero; the only time
//     that exists is wall-clock time. This is the engine layer for actual
//     sharded workloads. Serving across hosts is internal/cluster's job:
//     it merges whole summaries over HTTP and needs no rank-level transport.
//
// Both transports move real values — algorithms are executed for real and
// their results are checked by tests; only the *accounting* differs.
//
// The words argument of Send/Exchange/AllGather is the message's payload
// size in the cost model's units (8-byte elements). Transports without a
// cost model ignore it. Control metadata (block sizes, pad values) is
// charged as one word per message, matching the paper's convention of
// ignoring O(1) control traffic.
//
// A Transport is owned by a single rank goroutine and must not be shared.
type Transport interface {
	// ID returns this rank in [0, P).
	ID() int
	// P returns the machine's rank count.
	P() int
	// Compute charges units of local work (no-op without a cost model).
	Compute(units int64)
	// Charge advances the clock by an externally modeled duration (no-op
	// without a cost model).
	Charge(d time.Duration)
	// Clock returns this rank's simulated time (zero without a cost model).
	Clock() time.Duration
	// Barrier synchronizes all ranks.
	Barrier() error
	// Send transmits payload (words elements) to rank to.
	Send(to int, words int64, payload any) error
	// Recv blocks for the next message from rank from.
	Recv(from int) (any, error)
	// Exchange sends payload to partner and receives the partner's payload.
	Exchange(partner int, words int64, payload any) (any, error)
	// AllGather collects every rank's payload into a slice indexed by rank,
	// visible to all ranks.
	AllGather(words int64, payload any) ([]any, error)
}

// The simulated machine's processors implement Transport as-is; the
// algorithms in algo.go were lifted off simnet.Proc without change.
var _ Transport = (*simnet.Proc)(nil)
