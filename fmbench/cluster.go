package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"filtermap"

	"filtermap/internal/cluster"
	"filtermap/internal/fingerprint"
	"filtermap/internal/world"
)

// cluster-fanout: fmserve -role both -cluster-workers 2 at deployment
// defaults (100ms idle poll, 10s leases) with caching disabled, so every
// request becomes a cluster job; one caller in a closed loop. The caller
// thinks for a seeded 0-100ms between requests, so submissions land at
// every phase of the workers' idle poll instead of locking onto it.

// clusterThinkMax bounds the caller's think time between requests.
const clusterThinkMax = 100 * time.Millisecond

// clusterSetups is how many servers a run builds and warms; each serves
// an equal part of the window.
const clusterSetups = 12

// clusterCall is one distinct request of the cluster-fanout sequence.
type clusterCall struct {
	kind string // identify, characterize, discover, mechanisms
	body string // JSON request body for POST /v1/<kind>
	req  cluster.Request
	want []byte // the in-process World+Reporter document
}

// clusterCalls is the fixed request set: every shardable kind over a few
// world configurations, small enough that set-up builds every replica.
func clusterCalls() []clusterCall {
	roster := world.MechanismRosterISPs()
	scrub := world.Options{ScrubHeaders: true}
	hide := world.Options{HideConsoles: true}
	mech := world.Options{Mechanisms: &world.MechanismOptions{}}
	return []clusterCall{
		{kind: "identify", body: `{}`, req: cluster.Request{Kind: "identify"}},
		{kind: "identify", body: `{"products":["Netsweeper"]}`, req: cluster.Request{Kind: "identify", Products: []string{"Netsweeper"}}},
		{kind: "identify", body: `{"world":{"scrub_headers":true}}`, req: cluster.Request{Kind: "identify", World: scrub}},
		{kind: "identify", body: `{"world":{"hide_consoles":true}}`, req: cluster.Request{Kind: "identify", World: hide}},
		{kind: "mechanisms", body: `{}`, req: cluster.Request{Kind: "mechanisms", World: mech}},
		{kind: "mechanisms", body: fmt.Sprintf(`{"isps":[%q,%q]}`, roster[0], roster[1]),
			req: cluster.Request{Kind: "mechanisms", World: mech, ISPs: sortedStrings(roster[0], roster[1])}},
		{kind: "characterize", body: `{}`, req: cluster.Request{Kind: "characterize"}},
		{kind: "characterize", body: `{"isps":["YemenNet"]}`, req: cluster.Request{Kind: "characterize", ISPs: []string{"YemenNet"}}},
		{kind: "discover", body: `{}`, req: cluster.Request{Kind: "discover"}},
		{kind: "discover", body: `{"isps":["YemenNet"],"rounds":2,"budget":40}`,
			req: cluster.Request{Kind: "discover", ISPs: []string{"YemenNet"}, Rounds: 2, Budget: 40}},
	}
}

func sortedStrings(a, b string) []string {
	if b < a {
		a, b = b, a
	}
	return []string{a, b}
}

// inProcessDoc computes the document a standalone process produces for
// the request: a fresh World run through the same pipeline and the
// Reporter's JSON encoding.
func inProcessDoc(ctx context.Context, r cluster.Request) ([]byte, error) {
	w, err := filtermap.NewWorld(r.World)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	var rep filtermap.Reporter
	var doc any
	switch r.Kind {
	case "identify":
		p, err := w.IdentifyPipeline(ctx, nil)
		if err != nil {
			return nil, err
		}
		if len(r.Products) > 0 {
			all := fingerprint.ShodanKeywords()
			p.Keywords = make(map[string][]string)
			for _, prod := range r.Products {
				p.Keywords[prod] = all[prod]
			}
		}
		res, err := p.Run(ctx)
		if err != nil {
			return nil, err
		}
		doc = rep.IdentifyJSON(res)
	case "characterize":
		w.Clock.Advance(8 * time.Hour)
		reports, err := w.RunCharacterizationFor(ctx, r.ISPs)
		if err != nil {
			return nil, err
		}
		doc = rep.Table4JSON(reports)
	case "discover":
		w.Clock.Advance(8 * time.Hour)
		targets, err := w.RunDiscovery(ctx, filtermap.DiscoveryOptions{ISPs: r.ISPs, Rounds: r.Rounds, Budget: r.Budget})
		if err != nil {
			return nil, err
		}
		doc = rep.DiscoveryJSON(r.Rounds, r.Budget, targets)
	case "mechanisms":
		targets, err := w.RunMechanismSurveyFor(ctx, r.ISPs)
		if err != nil {
			return nil, err
		}
		doc = rep.MechanismsJSON(targets)
	default:
		return nil, fmt.Errorf("unknown kind %q", r.Kind)
	}
	return json.Marshal(doc)
}

func clusterOptions() filtermap.ServeOptions {
	return filtermap.ServeOptions{
		CacheTTL: -1,
		Cluster:  &filtermap.ClusterOptions{Role: filtermap.RoleBoth, LocalWorkers: 2},
	}
}

// clusterOnce sends one request and checks the merged document against
// the in-process one.
func clusterOnce(e *serveEnv, c *clusterCall) (time.Duration, error) {
	start := time.Now()
	status, body, err := e.call("POST", "/v1/"+c.kind+"?wait=1", c.body)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	what := c.kind + " " + c.body
	if err := expectStatus(what, status, body, http.StatusOK); err != nil {
		return lat, err
	}
	return lat, expectBytes(what, body, c.want)
}

func runClusterFanout(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{}
	calls := clusterCalls()
	for i := range calls {
		want, err := inProcessDoc(ctx, calls[i].req)
		if err != nil {
			return nil, err
		}
		calls[i].want = want
	}

	// Each set-up serves an equal part of the window. The two local
	// workers' idle polls keep whatever relative phase they started with,
	// and that phase shifts every job's latency, so one server per run
	// would make the run's median depend on where it started; several
	// servers per run average it out.
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc105))
	think := func() { time.Sleep(time.Duration(rng.Int64N(int64(clusterThinkMax)))) }
	// The calls are sent in rounds, each a fresh seeded permutation of
	// the set, so every seed offers the same mix of kinds and only the
	// order changes. Drawing each call independently let the share of
	// slow kinds, and with it the median, vary from seed to seed.
	var deck []int
	next := func() int {
		if len(deck) == 0 {
			deck = rng.Perm(len(calls))
		}
		i := deck[0]
		deck = deck[1:]
		return i
	}
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	var env *serveEnv
	var buildMs []float64
	for i := range clusterSetups {
		start := time.Now()
		var err error
		env, err = startServe(clusterOptions())
		if err != nil {
			return nil, err
		}
		buildMs = append(buildMs, ms(time.Since(start)))
		for j := range calls {
			_, err := clusterOnce(env, &calls[j])
			res.checks.record(err)
		}
		res.setups = append(res.setups, time.Since(start))

		ops, elapsed := timedLoop(window/clusterSetups, func() time.Duration {
			lat, err := clusterOnce(env, &calls[next()])
			res.checks.record(err)
			think()
			return lat
		})
		res.ops = append(res.ops, ops...)
		res.window += elapsed
		if i < clusterSetups-1 || !cfg.trace {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
	}
	if !cfg.trace {
		return res, nil
	}
	defer env.close() //nolint:errcheck // the run's figures are already taken

	layers := map[string]float64{}
	before, err := scrapeMetrics(env)
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	var picked []int
	traced, _ := timedLoop(window, func() time.Duration {
		i := next()
		picked = append(picked, i)
		lat, err := clusterOnce(env, &calls[i])
		res.checks.record(err)
		think()
		return lat
	})
	fillRuntime(layers, diffRuntime(rtBefore, readRuntime(), len(traced)), heapLiveMB())
	fillTraceOverhead(layers, res, traced)
	after, err := scrapeMetrics(env)
	if err != nil {
		return nil, err
	}
	fillServerDelta(layers, before, after)
	if after.Cluster != nil && before.Cluster != nil {
		a, b := before.Cluster.Counters, after.Cluster.Counters
		n := float64(len(traced))
		layers["cluster.leases"] = float64(b.LeasesGranted-a.LeasesGranted) / n
		layers["cluster.steals"] = float64(b.ShardsStolen-a.ShardsStolen) / n
		layers["cluster.reassigned"] = float64(b.LeasesExpired-a.LeasesExpired) / n
	}
	layers["world.build_ms"] = median(buildMs)

	paths, err := replayCluster(ctx, calls, &res.checks, layers)
	if err != nil {
		return nil, err
	}
	var wait []float64
	for k, i := range picked {
		wait = append(wait, ms(traced[k])-paths[i])
	}
	layers["cluster.wait_ms"] = percentile(wait, 50)
	res.layers = layers
	return res, nil
}

// replayCluster times the cluster layer's own functions on every request
// of the set — Split, Runner.RunShard per shard (on a runner whose
// replicas are already built) and Merge — checks each merged document
// against the in-process one, and returns each request's critical path
// in milliseconds: split, then the shards spread over two workers (the
// longest shard or half the shard total, whichever is larger), then
// merge.
func replayCluster(ctx context.Context, calls []clusterCall, checks *tally, layers map[string]float64) ([]float64, error) {
	runner := cluster.NewRunner()
	defer runner.Close()
	var splitUs, shardMs, mergeMs []float64
	paths := make([]float64, len(calls))
	for i, c := range calls {
		specs, err := cluster.Split(c.req)
		if err != nil {
			return nil, err
		}
		for _, s := range specs { // build the replicas, as set-up does
			if _, err := runner.RunShard(ctx, s); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		specs, err = cluster.Split(c.req)
		split := time.Since(start)
		if err != nil {
			return nil, err
		}
		frags := make([]*cluster.Fragment, len(specs))
		var longest, total time.Duration
		for j, s := range specs {
			start := time.Now()
			frags[j], err = runner.RunShard(ctx, s)
			d := time.Since(start)
			if err != nil {
				return nil, err
			}
			shardMs = append(shardMs, ms(d))
			longest, total = max(longest, d), total+d
		}
		start = time.Now()
		doc, err := cluster.Merge(c.req, frags)
		merge := time.Since(start)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		checks.record(expectBytes("merged "+c.kind+" "+c.body, b, c.want))
		splitUs = append(splitUs, us(split))
		mergeMs = append(mergeMs, ms(merge))
		paths[i] = ms(split + max(longest, total/2) + merge)
	}
	layers["cluster.split_us"] = percentile(splitUs, 50)
	layers["cluster.shard_ms"] = percentile(shardMs, 50)
	layers["cluster.merge_ms"] = percentile(mergeMs, 50)
	return paths, nil
}
