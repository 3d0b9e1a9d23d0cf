package cluster

import (
	"context"
	"fmt"
	"sync"

	"filtermap/internal/engine"
	"filtermap/internal/pipeline"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

// Runner executes shard specs against local world replicas. It
// positions each world exactly the way the server's single-process run
// does — that is the byte-identity contract: an indexed kind
// (identify) runs against a long-lived replica at the world epoch with
// a once-scanned banner index (the server's base world + shared index),
// cached per world-config hash across shards; every other kind runs on
// a fresh world built by its pipeline.Kind (clock offset included).
type Runner struct {
	engOpts []engine.Option

	mu       sync.Mutex
	replicas map[string]*identifyReplica
	closed   bool
}

// identifyReplica is one cached (world, banner index) pair for identify
// shards, keyed by world-config hash.
type identifyReplica struct {
	once  sync.Once
	world *world.World
	index *scanner.Index
	err   error
}

// NewRunner builds a runner. Engine options tune every world it builds.
func NewRunner(engOpts ...engine.Option) *Runner {
	return &Runner{
		engOpts:  engOpts,
		replicas: make(map[string]*identifyReplica),
	}
}

// Close releases the cached identify replicas. The runner is unusable
// afterwards.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, rep := range r.replicas {
		if rep.world != nil {
			rep.world.Close()
		}
	}
	r.replicas = nil
}

// RunShard executes one shard and returns its fragment.
func (r *Runner) RunShard(ctx context.Context, spec ShardSpec) (*Fragment, error) {
	k, ok := pipeline.ByName(spec.Kind)
	if !ok || !k.Shardable() {
		return nil, fmt.Errorf("cluster: unknown shard kind %q", spec.Kind)
	}
	var w *world.World
	var idx *scanner.Index
	var err error
	if k.Indexed {
		w, idx, err = r.replica(ctx, spec.World)
	} else {
		w, err = k.Build(spec.World, r.engOpts...)
		if err == nil {
			defer w.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	p := k.Targets.Restrict(pipeline.Params{Countries: spec.Countries, Rounds: spec.Rounds, Budget: spec.Budget}, spec.Pieces)
	res, err := k.Run(ctx, w, idx, p)
	if err != nil {
		return nil, err
	}
	return fragment(spec.Pieces, res), nil
}

// fragment cuts a shard's document into its fragment fields.
func fragment(pieces []string, res pipeline.Result) *Fragment {
	frag := &Fragment{Pieces: pieces}
	switch doc := res.Doc.(type) {
	case report.IdentifyDoc:
		frag.Installations, frag.QueryErrors, frag.StageErrors = doc.Installations, doc.QueryErrors, doc.StageErrors
		if len(res.Identify.CandidatesByProduct) > 0 {
			frag.Candidates = make(map[string][]string, len(res.Identify.CandidatesByProduct))
			for product, addrs := range res.Identify.CandidatesByProduct {
				strs := make([]string, len(addrs))
				for i, a := range addrs {
					strs[i] = a.String()
				}
				frag.Candidates[product] = strs
			}
		}
	case report.Table4Doc:
		frag.Table4Rows, frag.Reports = doc.Rows, doc.Reports
	case report.DiscoveryDoc:
		frag.Discovery = doc.Targets
	case report.MechanismsDoc:
		frag.Mechanisms = doc.Mechanisms
	}
	return frag
}

// replica returns the cached identify world + index for the spec's world
// options, scanning once on first use.
func (r *Runner) replica(ctx context.Context, opts world.Options) (*world.World, *scanner.Index, error) {
	key := store.ConfigHash(opts)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("cluster: runner closed")
	}
	rep, ok := r.replicas[key]
	if !ok {
		rep = &identifyReplica{}
		r.replicas[key] = rep
	}
	r.mu.Unlock()

	rep.once.Do(func() {
		w, err := world.Build(opts, r.engOpts...)
		if err != nil {
			rep.err = fmt.Errorf("cluster: build identify replica: %w", err)
			return
		}
		idx, err := w.Scanner().ScanNetwork(ctx)
		if err != nil {
			w.Close()
			rep.err = fmt.Errorf("cluster: replica scan: %w", err)
			return
		}
		rep.world, rep.index = w, idx
	})
	if rep.err != nil {
		return nil, nil, rep.err
	}
	return rep.world, rep.index, nil
}
