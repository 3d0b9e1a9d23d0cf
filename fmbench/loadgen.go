package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"filtermap/internal/fingerprint"
	"filtermap/internal/world"
)

// The serve-mixed open-loop generator: a seeded schedule of requests at
// a fixed offered rate plus monitor ticks at a fixed interval. Requests
// are due at fixed offsets whatever the server does; latency is measured
// from the due time, so a stall delays (and is charged to) every request
// queued behind it.

// opClass groups requests for the read/write/tick latency figures.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classTick
)

// request is one scheduled HTTP call (or, for jobs, a submit followed by
// polling until the job finishes).
type request struct {
	due    time.Duration // offset from the schedule start
	class  opClass
	method string
	path   string
	body   string
	// key names the request for the same-bytes-every-time check; empty
	// when the response is not a report (snapshot metas, ticks, diffs,
	// which are keyed by their content instead).
	key string
	// job marks a POST /v1/jobs submit whose finished result is checked
	// under key.
	job bool
	// diffKind is the store kind a GET /v1/diff compares.
	diffKind string
}

// keyedRead is one member of the read key space: a pipeline request body
// for POST /v1/<kind>.
type keyedRead struct {
	kind string // identify, characterize, mechanisms
	body string // JSON request body
}

// serveKeySpace builds the read key space: identify over product and
// country subsets, characterize over ISP subsets, mechanisms over roster
// ISP subsets — about twice the server's default 256-entry cache.
func serveKeySpace() []keyedRead {
	var out []keyedRead
	add := func(kind string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // static request shapes always marshal
		}
		out = append(out, keyedRead{kind, string(b)})
	}
	products := sortedKeys(fingerprint.ShodanKeywords())
	countries := []string{"AE", "QA", "SA", "YE", "US", "SY", "TH", "TW", "PK", "IL", "AR", "CL"}
	var countrySets [][]string
	for _, c := range countries {
		countrySets = append(countrySets, []string{c})
	}
	for i, c := range countries {
		countrySets = append(countrySets, []string{c, countries[(i+1)%len(countries)]})
		if i < 5 {
			countrySets = append(countrySets, []string{c, countries[i+3]})
		}
	}
	for _, ps := range subsets(products) {
		for _, cs := range countrySets {
			add("identify", map[string]any{"products": ps, "countries": cs})
		}
	}
	var isps []string
	for _, t := range world.CharacterizationTargets() {
		isps = append(isps, t.ISP)
	}
	for _, s := range subsets(isps) {
		add("characterize", map[string]any{"isps": s})
		add("characterize", map[string]any{"isps": s, "world": map[string]bool{"disable_du_sync_lag": true}})
	}
	roster := world.MechanismRosterISPs()
	for i, a := range roster {
		add("mechanisms", map[string]any{"isps": []string{a}})
		for _, b := range roster[i+1:] {
			add("mechanisms", map[string]any{"isps": []string{a, b}})
		}
	}
	return out
}

// subsets lists every non-empty subset of xs, in bitmask order.
func subsets(xs []string) [][]string {
	var out [][]string
	for mask := 1; mask < 1<<len(xs); mask++ {
		var s []string
		for i, x := range xs {
			if mask&(1<<i) != 0 {
				s = append(s, x)
			}
		}
		out = append(out, s)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// defaultReports are the GET /v1/reports endpoints whose bodies are
// pinned by recorded digests.
var defaultReports = []string{"table1", "figure1", "installations", "table3", "table4", "mechanisms"}

// serveMix holds the offered load of serve-mixed.
type serveMix struct {
	rate      float64       // requests per second, ticks excluded
	tickEvery time.Duration // monitor tick interval
	readShare float64       // share of requests that are reads
	// kindShare splits keyed reads and writes across pipeline kinds, so
	// every seed offers the same proportions of cheap and costly work.
	kindShare map[string]float64
	zipfS     float64 // popularity skew within a kind's keys
}

// keyPicker draws keys of one kind: Zipf-distributed popularity over a
// fixed permutation of the kind's keys. The permutation does not depend
// on the seed, so every seed offers the same popularity profile and the
// seed only changes the draws.
type keyPicker struct {
	keys []keyedRead
	rank []int
	zipf *rand.Zipf
}

// buildSchedule lays out every request due in [0, window) for seed. The
// same seed, mix and window give the same schedule.
func buildSchedule(seed uint64, mix serveMix, window time.Duration, keys []keyedRead) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	fixed := rand.New(rand.NewPCG(0, 0x5e7e))
	byKind := make(map[string][]keyedRead)
	for _, k := range keys {
		byKind[k.kind] = append(byKind[k.kind], k)
	}
	kinds := sortedKeys(mix.kindShare)
	pickers := make(map[string]*keyPicker)
	for _, kind := range kinds {
		ks := byKind[kind]
		pickers[kind] = &keyPicker{keys: ks, rank: fixed.Perm(len(ks)), zipf: rand.NewZipf(rng, mix.zipfS, 1, uint64(len(ks)-1))}
	}
	pick := func() keyedRead {
		u := rng.Float64()
		kind := kinds[len(kinds)-1]
		for _, k := range kinds {
			if u < mix.kindShare[k] {
				kind = k
				break
			}
			u -= mix.kindShare[k]
		}
		p := pickers[kind]
		return p.keys[p.rank[p.zipf.Uint64()]]
	}

	var out []request
	n := int(mix.rate * window.Seconds())
	for i := range n {
		r := request{due: window * time.Duration(i) / time.Duration(n)}
		switch u := rng.Float64(); {
		case u < mix.readShare*0.2:
			name := defaultReports[rng.IntN(len(defaultReports))]
			r.class, r.method, r.path, r.key = classRead, "GET", "/v1/reports/"+name, "report:"+name
		case u < mix.readShare:
			k := pick()
			r.class, r.method, r.path, r.body, r.key = classRead, "POST", "/v1/"+k.kind+"?wait=1", k.body, k.kind+" "+k.body
		default:
			r.class = classWrite
			k := pick()
			switch rng.IntN(3) {
			case 0: // record the kind's default report, as a scheduled client would
				r.method, r.path = "POST", "/v1/snapshots"
				r.body = fmt.Sprintf(`{"kind":%q}`, k.kind)
			case 1:
				r.method, r.diffKind = "GET", storeKind(k.kind)
			default:
				r.method, r.path, r.job, r.key = "POST", "/v1/jobs", true, k.kind+" "+k.body
				r.body = fmt.Sprintf(`{"kind":%q,"request":%s}`, k.kind, k.body)
			}
		}
		out = append(out, r)
	}
	for due := mix.tickEvery / 2; due < window; due += mix.tickEvery {
		out = append(out, request{due: due, class: classTick, method: "POST", path: "/v1/monitor/tick", body: `{"ticks":1}`})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// storeKind maps a pipeline kind to its snapshot-store kind.
func storeKind(kind string) string {
	if kind == "characterize" {
		return "table4"
	}
	return kind
}
