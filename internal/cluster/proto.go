// Package cluster is the distributed scan-out layer: a coordinator that
// splits a pipeline request into shards over the probe space (one shard
// per Table 2 product for identification, one per target ISP for
// characterization, discovery, and the mechanism survey), leases shards
// to workers over an HTTP/JSON protocol, and merges the returned
// document fragments into a report byte-identical to the single-process
// output.
//
// The determinism contract that makes the merge exact: every worker
// builds its own netsim world replica from the same world.Options (same
// seed ⇒ same world), positions its clock exactly the way the server's
// single-process runner does, and ships back final-document fragments —
// the per-product / per-ISP pieces of the JSON documents in
// internal/report — rather than internal structs. The coordinator
// reassembles the document and the server marshals it through the same
// encoder, so a 4-worker cluster and one process produce the same bytes.
//
// Shards are leased with a deadline: a worker that stops heartbeating
// loses its lease and the shard is reassigned to the next worker that
// asks (lease expiry is the crash-recovery path, work-stealing the
// straggler path). Completed cluster runs append to the coordinator's
// snapshot store — the single writer — and replicas tail the log over
// GET /v1/cluster/log (see Follower).
package cluster

import (
	"time"

	"filtermap/internal/report"
	"filtermap/internal/world"
)

// Request is one plan to scan out: the effective world options the run
// executes under plus the kind-specific parameters, mirroring the
// server's normalized request types.
type Request struct {
	Kind string `json:"kind"`
	// World is the effective world.Options (base options with the
	// request's evasion overlay applied). Every worker builds its replica
	// from exactly these options.
	World world.Options `json:"world"`
	// Products restricts the identify keyword fan-out (identify only;
	// empty = all Table 2 products).
	Products []string `json:"products,omitempty"`
	// Countries bounds the identify ccTLD fan-out (identify only).
	Countries []string `json:"countries,omitempty"`
	// ISPs restricts the target set (characterize/discover/mechanisms).
	ISPs []string `json:"isps,omitempty"`
	// Rounds and Budget cap each discovery crawl (discover only).
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
}

// ShardSpec is one unit of leased work: a slice of the request's probe
// space small enough for one worker, with everything the worker needs to
// rebuild the world and run it.
type ShardSpec struct {
	Kind  string        `json:"kind"`
	World world.Options `json:"world"`
	// Pieces names this shard's slice of the probe space: product names
	// for identify, ISP names otherwise.
	Pieces []string `json:"pieces"`
	// Countries carries the identify country restriction.
	Countries []string `json:"countries,omitempty"`
	// Rounds and Budget carry the discovery crawl caps.
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
}

// Fragment is one shard's contribution to the final document: the
// per-product / per-ISP pieces of the internal/report JSON documents,
// produced by the same renderers the single-process path uses. Exactly
// the fields for the shard's kind are populated.
type Fragment struct {
	// Pieces echoes the shard's probe-space slice.
	Pieces []string `json:"pieces"`

	// Identify. Candidates maps product -> candidate addresses from the
	// keyword stage; the merged CandidateCount is the distinct-IP union
	// across products, which per-shard document fields cannot express.
	Candidates    map[string][]string      `json:"candidates,omitempty"`
	Installations []report.InstallationDoc `json:"installations,omitempty"`
	QueryErrors   []report.QueryErrorDoc   `json:"query_errors,omitempty"`
	StageErrors   []report.StageErrorDoc   `json:"stage_errors,omitempty"`

	// Characterize.
	Table4Rows []report.Table4RowDoc     `json:"table4_rows,omitempty"`
	Reports    []report.CountryReportDoc `json:"reports,omitempty"`

	// Discover.
	Discovery []report.DiscoveryTargetDoc `json:"discovery,omitempty"`

	// Mechanisms.
	Mechanisms []report.MechanismISPDoc `json:"mechanisms,omitempty"`
}

// LeaseRef identifies one granted lease: the job, the shard index within
// it, and the lease epoch. The epoch increments on every (re)assignment,
// so a result posted under a stale epoch is recognizable.
type LeaseRef struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Epoch int    `json:"epoch"`
}

// ShardLease is one granted lease: the ref, the work, and the deadline
// by which the worker must heartbeat or deliver.
type ShardLease struct {
	Ref      LeaseRef  `json:"ref"`
	Spec     ShardSpec `json:"spec"`
	Deadline time.Time `json:"deadline"`
}

// LeaseRequest is the POST /v1/cluster/lease body.
type LeaseRequest struct {
	Worker string `json:"worker"`
	// Max caps how many shards to lease in one call (0 = 1).
	Max int `json:"max,omitempty"`
	// WaitMS is how long the call may park for work when none is
	// pending (0 = answer now). The coordinator clamps it to its
	// LeaseTTL so a parked worker stays a ring member.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeaseResponse carries zero or more granted leases. Empty means no
// shard became pending within the request's wait; the worker asks
// again.
type LeaseResponse struct {
	Leases []ShardLease `json:"leases"`
}

// ResultRequest is the POST /v1/cluster/result body: a completed
// fragment, or the error that ended the attempt.
type ResultRequest struct {
	Worker   string    `json:"worker"`
	Ref      LeaseRef  `json:"ref"`
	Fragment *Fragment `json:"fragment,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// ResultResponse acknowledges a posted result. Stale marks a result for
// a shard that had already completed under another lease (the work was
// not wasted validation-wise — results are deterministic — but it did
// not advance the job).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
	Stale    bool `json:"stale,omitempty"`
}

// HeartbeatRequest renews the worker's leases. Refs lists every lease
// the worker still holds.
type HeartbeatRequest struct {
	Worker string     `json:"worker"`
	Refs   []LeaseRef `json:"refs,omitempty"`
}

// HeartbeatResponse reports, positionally for each ref, whether the
// lease is still the worker's. A false entry means the lease expired and
// was (or will be) reassigned: the worker should abandon that shard.
type HeartbeatResponse struct {
	Valid []bool `json:"valid"`
}

// ReleaseRequest hands leases back without results — the graceful-drain
// path. Released shards return to pending immediately, skipping the
// lease-expiry wait.
type ReleaseRequest struct {
	Worker string     `json:"worker"`
	Refs   []LeaseRef `json:"refs,omitempty"`
}

// Counters is the coordinator's monotonic event census, served under
// /metrics.
type Counters struct {
	Jobs          uint64 `json:"jobs"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	Shards        uint64 `json:"shards"`
	ShardsDone    uint64 `json:"shards_done"`
	ShardsRetried uint64 `json:"shards_retried"`
	LeasesGranted uint64 `json:"leases_granted"`
	LeasesExpired uint64 `json:"leases_expired"`
	// ShardsStolen counts leases granted to a worker that is not the
	// shard's consistent-hash owner (work-stealing).
	ShardsStolen    uint64 `json:"shards_stolen"`
	LeasesReleased  uint64 `json:"leases_released"`
	Heartbeats      uint64 `json:"heartbeats"`
	StaleResults    uint64 `json:"stale_results"`
	WorkersExpired  uint64 `json:"workers_expired"`
	WorkersAdmitted uint64 `json:"workers_admitted"`
}

// StatusDoc is the GET /v1/cluster body.
type StatusDoc struct {
	Enabled bool   `json:"enabled"`
	Role    string `json:"role,omitempty"`
	// Workers lists the live ring members, sorted by ID.
	Workers []WorkerStatusDoc `json:"workers,omitempty"`
	// Jobs lists active jobs plus a bounded tail of finished ones.
	Jobs     []JobStatusDoc `json:"jobs,omitempty"`
	Counters Counters       `json:"counters"`
}

// WorkerStatusDoc is one ring member's census entry.
type WorkerStatusDoc struct {
	ID string `json:"id"`
	// IdleMS is how long ago the worker last contacted the coordinator.
	IdleMS int64 `json:"idle_ms"`
	Leases int   `json:"leases"`
}

// JobStatusDoc is one job's shard census.
type JobStatusDoc struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"` // running | done | failed
	Shards int    `json:"shards"`
	Done   int    `json:"done"`
	Leased int    `json:"leased"`
}
