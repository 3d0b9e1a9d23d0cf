package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"filtermap/internal/cluster"
	"filtermap/internal/pipeline"
	"filtermap/internal/world"
)

// TestKindsRoundTrip checks that every kind round-trips between its
// wire name and its snapshot kind, and that no two kinds share either.
func TestKindsRoundTrip(t *testing.T) {
	snapshots := make(map[string]bool)
	for _, k := range pipeline.All() {
		if got, ok := pipeline.ByName(k.Name); !ok || got != k {
			t.Errorf("ByName(%q) = %v, %v", k.Name, got, ok)
		}
		if k.Snapshot == "" {
			continue
		}
		if snapshots[k.Snapshot] {
			t.Errorf("snapshot kind %q recorded by two kinds", k.Snapshot)
		}
		snapshots[k.Snapshot] = true
		if got, ok := pipeline.BySnapshot(k.Snapshot); !ok || got != k {
			t.Errorf("BySnapshot(%q) = %v, %v, want %s", k.Snapshot, got, ok, k.Name)
		}
	}
	if k, ok := pipeline.BySnapshot(""); ok {
		t.Errorf("the empty snapshot kind resolves to %s", k.Name)
	}
	if _, ok := pipeline.ByName("frobnicate"); ok {
		t.Error("unknown wire name resolves")
	}
}

// TestNormalizeKeepsOnlyTheKindsFields checks that a request encodes
// exactly what its kind reads: fields of other kinds are dropped
// before validation, and lists come back sorted and deduplicated.
func TestNormalizeKeepsOnlyTheKindsFields(t *testing.T) {
	all := pipeline.Params{
		Products:  []string{"Netsweeper", "Blue Coat", "Netsweeper"},
		Countries: []string{"YE", " AE", "YE"},
		Campaign:  " no-such-campaign ",
		Rounds:    2,
		Budget:    40,
	}
	withISPs := func(isps ...string) pipeline.Params {
		p := all
		p.ISPs = isps
		return p
	}
	cases := []struct {
		kind    *pipeline.Kind
		in, out pipeline.Params
	}{
		{pipeline.Identify, withISPs("NoSuchISP"),
			pipeline.Params{Products: []string{"Blue Coat", "Netsweeper"}, Countries: []string{"AE", "YE"}}},
		{pipeline.Confirm, withISPs("NoSuchISP"), pipeline.Params{Campaign: "no-such-campaign"}},
		{pipeline.Characterize, withISPs("YemenNet", "Du"), pipeline.Params{ISPs: []string{"Du", "YemenNet"}}},
		{pipeline.Discover, withISPs("YemenNet"), pipeline.Params{ISPs: []string{"YemenNet"}, Rounds: 2, Budget: 40}},
		{pipeline.Mechanisms, withISPs("Nayatel"), pipeline.Params{ISPs: []string{"Nayatel"}}},
	}
	for _, c := range cases {
		got, err := c.kind.Normalize(c.in)
		if err != nil {
			t.Errorf("%s: Normalize: %v", c.kind.Name, err)
			continue
		}
		if !reflect.DeepEqual(got, c.out) {
			t.Errorf("%s: Normalize = %+v, want %+v", c.kind.Name, got, c.out)
		}
	}
	if _, err := pipeline.Characterize.Normalize(withISPs("NoSuchISP")); err == nil {
		t.Error("characterize accepted an unknown ISP")
	}
	if _, err := pipeline.Discover.Normalize(pipeline.Params{Budget: -1}); err == nil {
		t.Error("discover accepted a negative budget")
	}
}

// TestShardedRunMatchesWholeRun checks, for every shardable kind, that
// the cluster's Split → RunShard → Merge marshals to the same bytes as
// the table's run on a fresh world.
func TestShardedRunMatchesWholeRun(t *testing.T) {
	ctx := context.Background()
	for _, k := range pipeline.All() {
		if !k.Shardable() {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			var opts world.Options
			if k.Roster {
				opts.Mechanisms = &world.MechanismOptions{}
			}
			// Small crawl caps keep discovery quick; other kinds drop them.
			p, err := k.Normalize(pipeline.Params{Rounds: 2, Budget: 16})
			if err != nil {
				t.Fatal(err)
			}
			w, err := k.Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			res, err := k.Run(ctx, w, nil, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res.Doc)
			if err != nil {
				t.Fatal(err)
			}

			req := cluster.Request{Kind: k.Name, World: opts, Rounds: p.Rounds, Budget: p.Budget}
			specs, err := cluster.Split(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) != len(k.Targets.List()) {
				t.Fatalf("Split made %d shards, want one per target (%d)", len(specs), len(k.Targets.List()))
			}
			runner := cluster.NewRunner()
			defer runner.Close()
			frags := make([]*cluster.Fragment, len(specs))
			for i, spec := range specs {
				if frags[i], err = runner.RunShard(ctx, spec); err != nil {
					t.Fatalf("shard %v: %v", spec.Pieces, err)
				}
			}
			doc, err := cluster.Merge(req, frags)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("merged %s document differs from the whole run:\n got %s\nwant %s", k.Name, got, want)
			}
		})
	}
}
