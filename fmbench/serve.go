package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"filtermap"
)

// serve-mixed: an open loop at a fixed offered rate against fmserve's
// handler, served by net/http over loopback TCP inside this process, at
// -scale city with the embedded monitor and a file-backed store.

// serveOffered is the offered load: a quarter of 600/s, the highest rate
// measured to meet serveSLO without a growing backlog. At half of it
// peak_rss_mb and op_p50_ms spread too far between runs (see NOTES.md).
var serveOffered = serveMix{
	rate:      150,
	tickEvery: 4 * time.Second,
	readShare: 0.895, // the rest are writes; ticks come on their own schedule
	kindShare: map[string]float64{"identify": 0.75, "characterize": 0.125, "mechanisms": 0.125},
	zipfS:     1.1,
}

// serveSLO is the fixed p99 latency limit slo_miss_ratio counts against.
const serveSLO = 250 * time.Millisecond

// serveSetups is how many times the server is built and warmed per run;
// the last one serves the timed window.
const serveSetups = 3

// serveReportDigests pins the default report bodies at -scale city.
var serveReportDigests = map[string]string{
	"report:table1":        "828e84650a568f9612501e7d802d22d7df1c3791c74332dafa376df8358231b3",
	"report:figure1":       "82f75a2245d1c4155fcd38e87fd0600fd9b6f1f048f5783da4e0b911ea13caec",
	"report:installations": "988f89aa1de1aa675cafed9d6f6097a34485d4f6c6caf0a8aea74d4c792488a5",
	"report:table3":        "d2e1cbaee50fbd48d454e50da7044e43f10992c541027336295560725458706f",
	"report:table4":        "c6af881593a83c6ea84a0ab3201282ba29f666fd0fa299035f8bd664d0a2678d",
	"report:mechanisms":    "8eec0d1024ab8761d7870ff286671a4c79464c3260a9a4c9f12583c09a142b47",
}

// serveEnv is one running server and its loopback client.
type serveEnv struct {
	srv    *filtermap.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServe builds the server, listens on a loopback port and serves it
// with net/http. The client keeps at most two connections.
func startServe(opts filtermap.ServeOptions, engOpts ...filtermap.Option) (*serveEnv, error) {
	srv, err := filtermap.NewServer(opts, engOpts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // already failing
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		served: make(chan error, 1),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close stops the listener, drains the server and waits for Serve to
// return.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	if serr := e.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// call sends one request and returns the status and body with any
// trailing newline removed.
func (e *serveEnv) call(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, bytes.TrimRight(b, "\n"), err
}

// expectStatus fails unless status is one of want.
func expectStatus(what string, status int, body []byte, want ...int) error {
	for _, w := range want {
		if status == w {
			return nil
		}
	}
	return fmt.Errorf("%s: status %d: %.200s", what, status, body)
}

// serveState is what the generator tracks across one server's requests.
type serveState struct {
	env  *serveEnv
	same *sameEveryTime
	// firstSeq maps a store kind to the first snapshot seq the warm-up
	// recorded, the "from" side of every diff of that kind.
	firstSeq map[string]uint64
}

// sample is one finished scheduled request.
type sample struct {
	req      request
	lat, lag time.Duration
	err      error
}

// exec performs one scheduled request and checks its output.
func (s *serveState) exec(r request) error {
	switch {
	case r.job:
		return s.execJob(r)
	case r.diffKind != "":
		path := fmt.Sprintf("/v1/diff?from=%d&to=latest:%s", s.firstSeq[r.diffKind], r.diffKind)
		status, body, err := s.env.call("GET", path, "")
		if err != nil {
			return err
		}
		if err := expectStatus(path, status, body, http.StatusOK); err != nil {
			return err
		}
		var d struct {
			From, To struct{ ID string }
		}
		if err := json.Unmarshal(body, &d); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return s.same.check("diff "+d.From.ID+" "+d.To.ID, body)
	}
	status, body, err := s.env.call(r.method, r.path, r.body)
	if err != nil {
		return err
	}
	what := r.method + " " + r.path
	switch r.class {
	case classTick:
		return expectStatus(what, status, body, http.StatusOK)
	case classWrite: // snapshot record
		if err := expectStatus(what, status, body, http.StatusOK, http.StatusCreated); err != nil {
			return err
		}
		var meta struct{ Kind, ID string }
		if err := json.Unmarshal(body, &meta); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		var want struct{ Kind string }
		json.Unmarshal([]byte(r.body), &want) //nolint:errcheck // our own request body
		if meta.Kind != storeKind(want.Kind) || meta.ID == "" {
			return fmt.Errorf("%s: recorded kind %q id %q, want kind %q", what, meta.Kind, meta.ID, storeKind(want.Kind))
		}
		return nil
	}
	if err := expectStatus(what, status, body, http.StatusOK); err != nil {
		return err
	}
	if want, ok := serveReportDigests[r.key]; ok {
		if err := expectDigest(r.key, body, want); err != nil {
			return err
		}
	}
	return s.same.check(r.key, body)
}

// execJob submits an async job and polls it until it finishes; the
// result must equal the synchronous answer for the same request.
func (s *serveState) execJob(r request) error {
	status, body, err := s.env.call("POST", "/v1/jobs", r.body)
	if err != nil {
		return err
	}
	if err := expectStatus("POST /v1/jobs", status, body, http.StatusOK, http.StatusCreated); err != nil {
		return err
	}
	var job struct {
		ID     string
		State  string
		Error  string
		Result json.RawMessage
	}
	if err := json.Unmarshal(body, &job); err != nil {
		return err
	}
	path := "/v1/jobs/" + job.ID
	for deadline := time.Now().Add(60 * time.Second); ; {
		status, body, err = s.env.call("GET", path, "")
		if err != nil {
			return err
		}
		if err := expectStatus("GET "+path, status, body, http.StatusOK); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return err
		}
		switch job.State {
		case "done":
			return s.same.check(r.key, job.Result)
		case "failed":
			return fmt.Errorf("job %s (%s) failed: %s", job.ID, r.key, job.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s (%s) still %s after 60s", job.ID, r.key, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// openLoop runs the schedule with two client goroutines: each takes the
// next request, waits until its due time less offset, sends it, and
// charges the latency from that time.
func (s *serveState) openLoop(sched []request, offset time.Duration) ([]sample, time.Duration) {
	out := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				r := sched[i]
				due := start.Add(r.due - offset)
				time.Sleep(time.Until(due))
				lag := time.Since(due)
				err := s.exec(r)
				out[i] = sample{req: r, lat: time.Since(due), lag: lag, err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// warmUp fetches every default report (the figure1 report triggers the
// base scan) and records one snapshot per kind, so diffs have a base.
func (s *serveState) warmUp(checks *tally) error {
	for _, name := range defaultReports {
		checks.record(s.exec(request{class: classRead, method: "GET", path: "/v1/reports/" + name, key: "report:" + name}))
	}
	s.firstSeq = make(map[string]uint64)
	for _, kind := range []string{"identify", "characterize", "mechanisms"} {
		status, body, err := s.env.call("POST", "/v1/snapshots", fmt.Sprintf(`{"kind":%q}`, kind))
		if err == nil {
			err = expectStatus("warm-up snapshot", status, body, http.StatusOK, http.StatusCreated)
		}
		if err != nil {
			return err
		}
		var meta struct{ Seq uint64 }
		if err := json.Unmarshal(body, &meta); err != nil {
			return err
		}
		s.firstSeq[storeKind(kind)] = meta.Seq
	}
	return nil
}

func serveOptions(dir string) filtermap.ServeOptions {
	return filtermap.ServeOptions{
		World:    filtermap.Options{Scale: filtermap.ScaleCity},
		StoreDir: dir,
		Monitor:  &filtermap.MonitorOptions{},
	}
}

func runServeMixed(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{}
	var st *serveState
	var buildMs []float64
	for i := range serveSetups {
		dir, err := os.MkdirTemp("", "fmbench-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		env, err := startServe(serveOptions(dir))
		if err != nil {
			return nil, err
		}
		buildMs = append(buildMs, ms(time.Since(start)))
		st = &serveState{env: env, same: newSameEveryTime()}
		if err := st.warmUp(&res.checks); err != nil {
			env.close() //nolint:errcheck // already failing
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
		if i < serveSetups-1 {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
	}
	defer st.env.close() //nolint:errcheck // the run's figures are already taken

	sched := buildSchedule(cfg.seed, serveOffered, cfg.seconds, serveKeySpace())
	untraced, traced, half := sched, []request(nil), time.Duration(0)
	if cfg.trace {
		half = cfg.seconds / 2
		i := sort.Search(len(sched), func(i int) bool { return sched[i].due >= half })
		untraced, traced = sched[:i], sched[i:]
	}

	samples, elapsed := st.openLoop(untraced, 0)
	res.window = elapsed
	for _, s := range samples {
		res.checks.record(s.err)
		res.ops = append(res.ops, s.lat)
	}
	res.extra = serveFigures(samples)
	if !cfg.trace {
		return res, nil
	}

	layers := map[string]float64{}
	before, err := scrapeMetrics(st.env)
	if err != nil {
		return nil, err
	}
	rtBefore := readRuntime()
	tsamples, _ := st.openLoop(traced, half)
	var tlat []time.Duration
	for _, s := range tsamples {
		res.checks.record(s.err)
		tlat = append(tlat, s.lat)
	}
	fillRuntime(layers, diffRuntime(rtBefore, readRuntime(), len(tsamples)), heapLiveMB())
	fillTraceOverhead(layers, res, tlat)
	after, err := scrapeMetrics(st.env)
	if err != nil {
		return nil, err
	}
	fillServerDelta(layers, before, after)
	fillHitMiss(layers, append(samples, tsamples...))
	for _, m := range serveFigures(tsamples) {
		layers["e2e."+m.Name] = m.Value
	}
	layers["loadgen.lag_p99_ms"] = layers["e2e.lag_p99_ms"]
	delete(layers, "e2e.lag_p99_ms")
	layers["world.build_ms"] = median(buildMs)
	layers["store.deduped"] = float64(after.Snapshots.Deduped-before.Snapshots.Deduped) +
		float64(after.monitorDeduped()-before.monitorDeduped())
	if err := replayStore(ctx, st.env, layers); err != nil {
		return nil, err
	}
	ticks := 0
	for _, r := range traced {
		if r.class == classTick {
			ticks++
		}
	}
	if err := replayMonitor(ctx, max(ticks, 1), layers); err != nil {
		return nil, err
	}
	res.layers = layers
	return res, nil
}

// serveFigures computes the serve-only end-to-end figures of one phase.
func serveFigures(samples []sample) []metric {
	var read, write, tick, lag []float64
	failed, misses := 0, 0
	for _, s := range samples {
		l := ms(s.lat)
		switch s.req.class {
		case classRead:
			read = append(read, l)
		case classWrite:
			write = append(write, l)
		case classTick:
			tick = append(tick, l)
		}
		lag = append(lag, ms(s.lag))
		if s.err != nil {
			failed++
		}
		if s.err != nil || s.lat > serveSLO {
			misses++
		}
	}
	ratio := func(n int) float64 {
		if len(samples) == 0 {
			return 0
		}
		return float64(n) / float64(len(samples))
	}
	return []metric{
		{"read_p99_ms", percentile(read, 99), "ms"},
		{"write_p99_ms", percentile(write, 99), "ms"},
		{"tick_p50_ms", percentile(tick, 50), "ms"},
		{"slo_miss_ratio", ratio(misses), "ratio"},
		{"error_ratio", ratio(failed), "ratio"},
		{"lag_p99_ms", percentile(lag, 99), "ms"},
	}
}
