package cluster

import (
	"fmt"

	"filtermap/internal/pipeline"
)

// Split cuts a request into shards, one per member of the kind's target
// set (pipeline.Kind.Targets) that the request selects:
//
//   - identify: one shard per Table 2 product (the keyword fan-out is
//     per-product; validation returns every product's matches for a
//     candidate regardless of which keyword surfaced it, so per-product
//     shards merge exactly).
//   - characterize / discover: one shard per characterization-target ISP.
//   - mechanisms: one shard per mechanism-roster ISP.
//
// Shard order is the single-process execution order (the target set's
// order), which is also the merge order. Confirmation campaigns have no
// target set: a campaign consumes the virtual timeline (clock
// advancement, vendor submission queues), so it is single-use and runs
// in-process.
func Split(req Request) ([]ShardSpec, error) {
	k, ok := pipeline.ByName(req.Kind)
	if !ok || !k.Shardable() {
		return nil, fmt.Errorf("cluster: kind %q is not shardable", req.Kind)
	}
	pieces := k.Targets.Select(req.params())
	specs := make([]ShardSpec, 0, len(pieces))
	for _, piece := range pieces {
		specs = append(specs, ShardSpec{
			Kind:      req.Kind,
			World:     req.World,
			Pieces:    []string{piece},
			Countries: req.Countries,
			Rounds:    req.Rounds,
			Budget:    req.Budget,
		})
	}
	return specs, nil
}

// params is the request's pipeline parameters.
func (r Request) params() pipeline.Params {
	return pipeline.Params{Products: r.Products, Countries: r.Countries, ISPs: r.ISPs, Rounds: r.Rounds, Budget: r.Budget}
}
