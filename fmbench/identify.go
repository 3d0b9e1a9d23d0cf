package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"filtermap"

	"filtermap/internal/httpwire"
	"filtermap/internal/scanner"
)

// identify-nation: one cold §3 identification of the ~106k-host nation
// world per op, plus the Figure 1 / installations render.

// identifySetups is how many times set-up is repeated per run.
const identifySetups = 5

// identifySetup builds a nation world (checking its size) and warms the
// identify path with one city-scale identification, so the first timed
// op does not pay for first-use initialisation.
func identifySetup(ctx context.Context) error {
	w, err := filtermap.NewWorld(filtermap.Options{Scale: filtermap.ScaleNation})
	if err != nil {
		return err
	}
	hosts := w.ScaleHosts()
	w.Close()
	if hosts < 100_000 {
		return fmt.Errorf("nation world has %d hosts, want >= 100000", hosts)
	}
	warm, err := filtermap.NewWorld(filtermap.Options{Scale: filtermap.ScaleCity})
	if err != nil {
		return err
	}
	defer warm.Close()
	_, err = warm.RunIdentification(ctx)
	return err
}

func runIdentifyNation(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{}
	for range identifySetups {
		start := time.Now()
		if err := identifySetup(ctx); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	op := func(tr *tracer, rec *stageRecorder, probe *identifyProbe) time.Duration {
		lat, text, rep, err := identifyOnce(ctx, tr, rec, probe)
		if err == nil {
			err = expectDigest("identify-nation figure1+installations", []byte(text), nationFigure1Digest)
		}
		if err == nil && rep.Degraded {
			err = errors.New("identify-nation: report is degraded")
		}
		res.checks.record(err)
		return lat
	}
	res.ops, res.window = timedLoop(window, func() time.Duration { return op(nil, nil, nil) })
	if !cfg.trace {
		return res, nil
	}

	tr, rec, probe := &tracer{}, newStageRecorder(), &identifyProbe{}
	before := readRuntime()
	traced, _ := timedLoop(window, func() time.Duration { return op(tr, rec, probe) })
	rt := diffRuntime(before, readRuntime(), len(traced))
	layers := map[string]float64{}
	fillRuntime(layers, rt, heapLiveMB())
	fillTraceOverhead(layers, res, traced)
	fillStages(layers, rec, len(traced))
	layers["engine.unattributed_share"] = tr.unattributedShare("op", isStageOrCall)
	layers["world.build_ms"] = percentile(durationsMs(tr.durations("world.build")), 50)
	layers["scanner.scan_ms"] = tr.totalMs("stage.scan") / float64(len(traced))
	layers["report.render_ms"] = percentile(durationsMs(tr.durations("report.render")), 50)
	layers["geo.whois_ms"] = probe.whoisMs
	layers["scanner.banners"] = mean(probe.banners)
	layers["fingerprint.candidates"] = mean(probe.candidates)
	layers["netsim.isps_materialized"] = mean(probe.isps)
	layers["netsim.hosts"] = mean(probe.hosts)
	layers["scanner.index_add_us"] = mean(probe.indexAddUs)
	if p := layers["scanner.probes"]; p > 0 {
		layers["netsim.refused_ratio"] = 1 - layers["scanner.banners"]/p
	}
	// The netsim probe dials a fresh nation world, so its first dials
	// are the cold, materializing ones.
	sample, err := filtermap.NewWorld(filtermap.Options{Scale: filtermap.ScaleNation})
	if err != nil {
		return nil, err
	}
	probeNetsim(ctx, sample, cfg.seed, layers)
	sample.Close()
	res.layers = layers
	return res, nil
}

// identifyProbe carries what traced identify ops leave behind for the
// layer probes that run after the timed window.
type identifyProbe struct {
	banners, candidates, isps, hosts []float64
	indexAddUs                       []float64
	whoisMs                          float64
}

// identifyOnce runs one op: build the nation world, scan it, run the
// identify pipeline and render. The scan and pipeline calls are exactly
// what RunIdentification makes; a nil tracer records no spans.
func identifyOnce(ctx context.Context, tr *tracer, rec *stageRecorder, probe *identifyProbe) (time.Duration, string, *filtermap.IdentifyReport, error) {
	start := time.Now()
	opSpan := tr.begin("op", 0)
	var w *filtermap.World
	err := tr.do("world.build", opSpan, func() (err error) {
		w, err = filtermap.NewWorld(filtermap.Options{Scale: filtermap.ScaleNation}, rec.options()...)
		return err
	})
	if err != nil {
		return time.Since(start), "", nil, err
	}
	defer w.Close()

	var rep *filtermap.IdentifyReport
	var idx *scanner.Index
	err = tr.do("scanner.scan", opSpan, func() (err error) {
		idx, err = w.Scanner().ScanNetwork(ctx)
		return err
	})
	if err == nil {
		err = tr.do("identify.pipeline", opSpan, func() error {
			p, err := w.IdentifyPipeline(ctx, idx)
			if err != nil {
				return err
			}
			rep, err = p.Run(ctx)
			return err
		})
	}
	if err != nil {
		tr.finish(opSpan)
		return time.Since(start), "", nil, err
	}
	var text string
	tr.do("report.render", opSpan, func() error { //nolint:errcheck // render cannot fail
		var r filtermap.Reporter
		text = r.Figure1(rep) + "\n" + r.Installations(rep)
		return nil
	})
	tr.finish(opSpan)
	lat := time.Since(start)
	rec.drainInto(tr, opSpan)

	if probe != nil {
		probe.banners = append(probe.banners, float64(idx.Len()))
		probe.candidates = append(probe.candidates, float64(rep.CandidateCount))
		probe.isps = append(probe.isps, float64(len(w.Net.ISPs())))
		probe.hosts = append(probe.hosts, float64(len(w.Net.Hosts())))
		probe.whoisMs = ms(w.Stats().Snapshot().Stage("whois").Mean)
		probe.indexAddUs = append(probe.indexAddUs, indexAddUs(idx))
	}
	return lat, text, rep, nil
}

// indexAddUs re-adds every banner of a scan to a fresh index and returns
// the mean time per insert in microseconds.
func indexAddUs(idx *scanner.Index) float64 {
	banners := idx.All()
	if len(banners) == 0 {
		return 0
	}
	fresh := scanner.NewIndex()
	start := time.Now()
	for _, b := range banners {
		fresh.Add(b)
	}
	return us(time.Since(start)) / float64(len(banners))
}

// probeNetsim times the netsim, httpwire and geo layers on a seeded
// sample of w's addresses, after the window: a first (cold) and second
// (warm) dial per address, one request write + buffered response read
// per answering address, and a geolocation lookup per address. On a
// nation world the first dial of an address materializes its ISP.
func probeNetsim(ctx context.Context, w *filtermap.World, seed uint64, layers map[string]float64) {
	rng := rand.New(rand.NewPCG(seed, 0x1d3))
	all := w.Net.Addrs()
	sample := make([]netip.Addr, 400)
	for i := range sample {
		sample[i] = all[rng.IntN(len(all))]
	}
	const port = 80
	var cold, warm, rtt, lookup []float64
	for _, a := range sample {
		start := time.Now()
		c, err := w.ScanVantage.Dial(ctx, a, port)
		cold = append(cold, us(time.Since(start)))
		if err == nil {
			c.Close()
		}
	}
	for _, a := range sample {
		start := time.Now()
		c, err := w.ScanVantage.Dial(ctx, a, port)
		warm = append(warm, us(time.Since(start)))
		if err != nil {
			continue
		}
		req := &httpwire.Request{Method: "GET", Target: "/", Proto: "HTTP/1.0",
			Header: httpwire.NewHeader("Host", a.String(), "Connection", "close")}
		c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // best effort
		buf := httpwire.GetReadBuffer()
		start = time.Now()
		_, werr := req.WriteTo(c)
		_, rerr := httpwire.ReadResponseBuffered(buf, c, false)
		d := time.Since(start)
		buf.Release()
		c.Close()
		if werr == nil && rerr == nil {
			rtt = append(rtt, us(d))
		}
	}
	for _, a := range sample {
		start := time.Now()
		w.GeoDB.Country(a)
		lookup = append(lookup, us(time.Since(start)))
	}
	layers["netsim.dial_cold_us"] = percentile(cold, 50)
	layers["netsim.dial_warm_us"] = percentile(warm, 50)
	layers["httpwire.roundtrip_us"] = percentile(rtt, 50)
	layers["geo.lookup_us"] = percentile(lookup, 50)
}
