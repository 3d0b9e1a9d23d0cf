package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"filtermap"

	"filtermap/internal/blockpage"
	"filtermap/internal/confirm"
	"filtermap/internal/fingerprint"
	"filtermap/internal/measurement"
	"filtermap/internal/report"
	"filtermap/internal/urllist"
)

// paper-small: each op is the researcher's full reproduction at the
// default scale — everything a default fmrepro run prints plus the
// default fmdiscover crawl, rendered as text and as JSON, each step on
// fresh worlds. Like the CLIs, each op runs in a fresh process: the
// benchmark re-executes itself with --paper-op.

// paperSetups is how many times set-up is repeated per run.
const paperSetups = 3

// paperGoldens are the committed goldens the text artifacts must match
// byte for byte (testdata/<name>.golden).
var paperGoldens = []string{"table1", "table2", "figure1", "table3", "table4", "mechanisms", "discovery"}

// paperDigests pins the artifacts that have no committed golden: the
// prose-only steps and every JSON document.
var paperDigests = map[string]string{
	"denypagetests":   "852cf43877a7b14770c04a93fbccc36aeaf7387ea747fb35c26b0b45f673210e",
	"table5":          "247d36e883001a50d86399ad9ce8955448c001b951a4a0a9b440110c43a185c3",
	"table1.json":     "cfbc0495a236067f73e2219cca9641f114b68f8a26e140b5997f272e50088d38",
	"table2.json":     "fc71e64afcee225f47ab05ec9dbe846fbee6378e6de69a3db1cfdf0b1b343002",
	"figure1.json":    "92c47953765ddf1520a435cd04ae30648c10d6c3ca8d65a21b7adc11a1c0210f",
	"table3.json":     "37c7b9f5ef5cf76f8052334b75d095717f30da408d9ffafdb1d7e9af0cf54cbd",
	"table4.json":     "ffb4fb2105f8ee3468dc038cc9146627be9a3db719e46c264f848f3b1a67536c",
	"mechanisms.json": "7d83f218deb60daae4bafaa9b770c8c2f0863c8facd0c954e68cc1155d0fba94",
	"discovery.json":  "bc0be45c89c4e9cb3cd0d3849eef106f56bdd2dbadedc1429e94aba41b81653a",
}

// paperRun is one op's context: the tracer and recorder of a traced op
// and the artifacts produced so far.
type paperRun struct {
	ctx  context.Context
	tr   *tracer
	rec  *stageRecorder
	op   int // op span handle
	out  map[string][]byte
	last []*filtermap.CharacterizeReport
}

// world builds a fresh world inside a world.build span.
func (p *paperRun) world(opts filtermap.Options) (*filtermap.World, error) {
	var w *filtermap.World
	err := p.tr.do("world.build", p.op, func() (err error) {
		w, err = filtermap.NewWorld(opts, p.rec.options()...)
		return err
	})
	return w, err
}

// render runs fn inside a report.render span.
func (p *paperRun) render(fn func()) {
	h := p.tr.begin("report.render", p.op)
	fn()
	p.tr.finish(h)
}

// call runs fn inside a span named after the layer call, then records
// the engine stages the call ran as spans of their own.
func (p *paperRun) call(name string, fn func() error) error {
	err := p.tr.do(name, p.op, fn)
	p.rec.drainInto(p.tr, p.op)
	return err
}

// text stores a text artifact the way fmrepro prints it: the step's
// output followed by the blank line between steps.
func (p *paperRun) text(name, s string) { p.out[name] = []byte(s + "\n") }

// doc stores a JSON artifact the way fmrepro -json prints it.
func (p *paperRun) doc(name string, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return err
	}
	p.out[name] = buf.Bytes()
	return nil
}

func table2Descriptions() map[string][]string {
	sigDescs := make(map[string][]string)
	for _, sig := range fingerprint.Table2Signatures() {
		var parts []string
		for _, m := range sig.Matchers {
			parts = append(parts, m.Describe())
		}
		sigDescs[sig.Product] = append(sigDescs[sig.Product], strings.Join(parts, " AND "))
	}
	return sigDescs
}

var paperSteps = []struct {
	name string
	run  func(p *paperRun) error
}{
	{"table1", func(p *paperRun) error {
		var r filtermap.Reporter
		var err error
		p.render(func() {
			p.text("table1", r.Table1())
			err = p.doc("table1.json", r.Table1JSON())
		})
		return err
	}},
	{"table2", func(p *paperRun) error {
		var err error
		p.render(func() {
			d := table2Descriptions()
			p.text("table2", report.Table2(fingerprint.ShodanKeywords(), d))
			err = p.doc("table2.json", report.Table2JSON(fingerprint.ShodanKeywords(), d))
		})
		return err
	}},
	{"figure1", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		var rep *filtermap.IdentifyReport
		if err := p.call("identify.run", func() (err error) { rep, err = w.RunIdentification(p.ctx); return err }); err != nil {
			return err
		}
		var r filtermap.Reporter
		p.render(func() {
			p.text("figure1", r.Figure1(rep)+"\n"+r.Installations(rep))
			err = p.doc("figure1.json", r.IdentifyJSON(rep))
		})
		return err
	}},
	{"table3", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		var outcomes []*filtermap.Outcome
		if err := p.call("confirm.table3", func() (err error) { outcomes, err = w.RunTable3(p.ctx); return err }); err != nil {
			return err
		}
		var r filtermap.Reporter
		p.render(func() {
			p.text("table3", r.Table3(outcomes))
			err = p.doc("table3.json", r.Table3JSON(outcomes))
		})
		return err
	}},
	{"table4", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		w.Clock.Advance(8 * time.Hour)
		var reports []*filtermap.CharacterizeReport
		if err := p.call("characterize.run", func() (err error) { reports, err = w.RunCharacterization(p.ctx); return err }); err != nil {
			return err
		}
		p.last = reports
		var r filtermap.Reporter
		p.render(func() {
			p.text("table4", r.Table4WithReports(reports)+"\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)\n")
			err = p.doc("table4.json", r.Table4JSON(reports))
		})
		return err
	}},
	{"denypagetests", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		w.Clock.Advance(8 * time.Hour)
		client, err := w.MeasureClient(filtermap.ISPYemenNet)
		if err != nil {
			return err
		}
		var b strings.Builder
		b.WriteString("Netsweeper deny-page tests from YemenNet (§4.4): 66-category probe\n")
		err = p.call("measurement.denypage", func() error {
			for n := 1; n <= 66; n++ {
				url := fmt.Sprintf("http://denypagetests.netsweeper.com/category/catno/%d", n)
				if res := client.TestURL(p.ctx, url); res.Verdict == measurement.Blocked {
					fmt.Fprintf(&b, "  catno %-3d BLOCKED (%s)\n", n, res.BlockMatch.Category)
				}
			}
			return nil
		})
		p.text("denypagetests", b.String())
		return err
	}},
	{"table5", paperTable5},
	{"mechanisms", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}})
		if err != nil {
			return err
		}
		defer w.Close()
		var targets []filtermap.MechanismSurveyTarget
		if err := p.call("mechanism.survey", func() (err error) { targets, err = w.RunMechanismSurvey(p.ctx); return err }); err != nil {
			return err
		}
		var r filtermap.Reporter
		p.render(func() {
			p.text("mechanisms", report.Table2WithMechanisms(fingerprint.ShodanKeywords(), table2Descriptions(),
				fingerprint.MechanismSignatureDescriptions())+"\n"+r.Mechanisms(targets)+"\n"+r.Table4Mechanisms(targets))
			err = p.doc("mechanisms.json", r.MechanismsJSON(targets))
		})
		return err
	}},
	{"discovery", func(p *paperRun) error {
		w, err := p.world(filtermap.Options{})
		if err != nil {
			return err
		}
		defer w.Close()
		w.Clock.Advance(8 * time.Hour)
		var targets []filtermap.TargetDiscovery
		if err := p.call("discovery.crawl", func() (err error) {
			targets, err = w.RunDiscovery(p.ctx, filtermap.DiscoveryOptions{})
			return err
		}); err != nil {
			return err
		}
		var r filtermap.Reporter
		p.render(func() {
			// fmdiscover prints its report without a trailing blank line.
			p.out["discovery"] = []byte(r.Discovery(0, 0, targets))
			err = p.doc("discovery.json", r.DiscoveryJSON(0, 0, targets))
		})
		return err
	}},
}

// paperTable5 reproduces fmrepro's Table 5 (evasion scenarios): three
// evasion worlds, each run through the step it defeats.
func paperTable5(p *paperRun) error {
	var rows []report.Table5Row
	w1, err := p.world(filtermap.Options{HideConsoles: true})
	if err != nil {
		return err
	}
	defer w1.Close()
	var rep1 *filtermap.IdentifyReport
	var o1 *filtermap.Outcome
	if err := p.call("identify.run", func() (err error) { rep1, err = w1.RunIdentification(p.ctx); return err }); err != nil {
		return err
	}
	if err := p.call("confirm.plan", func() (err error) { o1, err = w1.RunPlan(p.ctx, "smartfilter-saudi-bayanat"); return err }); err != nil {
		return err
	}
	rows = append(rows, report.Table5Row{
		Step: "Identify installations (§3.1)", Technique: "Port scans (Shodan-style)",
		Limitation: "Can only identify externally visible installations",
		Evasion:    "Do not allow device to be accessed externally",
		Outcome:    fmt.Sprintf("identification finds %d installs; confirmation still %s", len(rep1.Installations), o1.Ratio()),
	})

	w2, err := p.world(filtermap.Options{ScrubHeaders: true})
	if err != nil {
		return err
	}
	defer w2.Close()
	var rep2 *filtermap.IdentifyReport
	if err := p.call("identify.run", func() (err error) { rep2, err = w2.RunIdentification(p.ctx); return err }); err != nil {
		return err
	}
	pc := rep2.ProductCountries()
	rows = append(rows, report.Table5Row{
		Step: "Validate installations (§3.1)", Technique: "WhatWeb-style signatures",
		Limitation: "Requires distinctive use of protocol headers",
		Evasion:    "Remove evidence of product from headers",
		Outcome: fmt.Sprintf("SmartFilter: %d countries (header/title sigs die); Netsweeper: %d (structural deny path survives)",
			len(pc[fingerprint.ProductSmartFilter]), len(pc[fingerprint.ProductNetsweeper])),
	})

	w3, err := p.world(filtermap.Options{FilterSubmissions: true})
	if err != nil {
		return err
	}
	defer w3.Close()
	var o3, oc *filtermap.Outcome
	if err := p.call("confirm.plan", func() (err error) { o3, err = w3.RunPlan(p.ctx, "smartfilter-saudi-bayanat"); return err }); err != nil {
		return err
	}
	urls, err := w3.ProvisionTestSites(urllist.AdultImage, 10)
	if err != nil {
		return err
	}
	measure, err := w3.MeasureClient(filtermap.ISPBayanat)
	if err != nil {
		return err
	}
	counter := &confirm.Campaign{
		Product: "McAfee SmartFilter", Country: "SA", ISP: filtermap.ISPBayanat, ASN: filtermap.ASNBayanat,
		Category: "pornography", CategoryLabel: "Pornography",
		DomainURLs: urls, SubmitCount: 5, PreTest: true, WaitDays: 4, RetestRounds: 3,
		Submit: w3.CounterEvasionSubmitter("McAfee SmartFilter"),
		Wait:   w3.Wait, Measure: measure,
	}
	if err := p.call("confirm.plan", func() (err error) { oc, err = confirm.Run(p.ctx, counter); return err }); err != nil {
		return err
	}
	rows = append(rows, report.Table5Row{
		Step: "Confirm censorship (§4)", Technique: "In-country testing and URL submission",
		Limitation: "Requires in-country testers, category knowledge, fresh domains",
		Evasion:    "Vendors may identify and disregard our submissions",
		Outcome:    fmt.Sprintf("lab identity: %s blocked; via proxy+webmail (§6.2): %s blocked", o3.Ratio(), oc.Ratio()),
	})
	p.render(func() { p.text("table5", report.Table5(rows)) })
	return nil
}

// paperOnce runs one op in this process: every step in the given order,
// then, when goldens are given, checks every artifact outside the op's
// latency.
func paperOnce(ctx context.Context, order []int, tr *tracer, rec *stageRecorder, goldens map[string][]byte) (time.Duration, *paperRun, error) {
	p := &paperRun{ctx: ctx, tr: tr, rec: rec, out: make(map[string][]byte)}
	start := time.Now()
	p.op = tr.begin("op", 0)
	var err error
	for _, i := range order {
		if err = paperSteps[i].run(p); err != nil {
			err = fmt.Errorf("%s: %w", paperSteps[i].name, err)
			break
		}
	}
	tr.finish(p.op)
	lat := time.Since(start)
	rec.drainInto(tr, p.op)
	if err != nil || goldens == nil {
		return lat, p, err
	}
	return lat, p, checkPaper(p.out, goldens)
}

// checkPaper compares every artifact with its golden or recorded digest
// and reports the first mismatch.
func checkPaper(out, goldens map[string][]byte) error {
	for _, name := range paperGoldens {
		if err := expectBytes(name, out[name], goldens[name]); err != nil {
			return err
		}
	}
	for name, want := range paperDigests {
		if err := expectDigest(name, out[name], want); err != nil {
			return err
		}
	}
	return nil
}

// paperChildFlag makes the binary run one paper-small op and print its
// artifacts (and, traced, its per-layer figures) as one JSON line.
const paperChildFlag = "paper-op"

// paperChildResult is what a child process reports for its op.
type paperChildResult struct {
	Out    map[string][]byte  `json:"out"`
	Err    string             `json:"err,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	// ProbeNs is how long a traced child spent on its layer probes after
	// the op; the parent takes it out of the op's latency.
	ProbeNs int64 `json:"probe_ns,omitempty"`
}

// runPaperChild is the child side: one op in the given step order.
func runPaperChild(ctx context.Context, seed uint64, order []int, trace bool) error {
	var tr *tracer
	var rec *stageRecorder
	before := readRuntime()
	if trace {
		tr, rec = &tracer{}, newStageRecorder()
	}
	_, p, err := paperOnce(ctx, order, tr, rec, nil)
	res := paperChildResult{Out: p.out}
	if err != nil {
		res.Err = err.Error()
	}
	if trace {
		probeStart := time.Now()
		layers := map[string]float64{}
		fillRuntime(layers, diffRuntime(before, readRuntime(), 1), heapLiveMB())
		fillStages(layers, rec, 1)
		layers["engine.unattributed_share"] = tr.unattributedShare("op", isStageOrCall)
		layers["world.build_ms"] = percentile(durationsMs(tr.durations("world.build")), 50)
		layers["report.render_ms"] = tr.totalMs("report.render")
		layers["mechanism.survey_ms"] = tr.totalMs("mechanism.survey")
		layers["discovery.crawl_ms"] = tr.totalMs("discovery.crawl")
		layers["scanner.scan_ms"] = tr.totalMs("stage.scan")
		layers["blockpage.classify_us"] = classifySample(seed, p)
		w, err := filtermap.NewWorld(filtermap.Options{})
		if err != nil {
			return err
		}
		probeNetsim(ctx, w, seed, layers)
		w.Close()
		res.Layers = layers
		res.ProbeNs = time.Since(probeStart).Nanoseconds()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// paperProcess runs one op the way a researcher does: as a fresh process,
// timed from spawn to exit, less a traced child's probe time. It returns
// the latency and the child's report.
func paperProcess(ctx context.Context, seed uint64, order []int, trace bool) (time.Duration, *paperChildResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	ord := make([]string, len(order))
	for i, o := range order {
		ord[i] = strconv.Itoa(o)
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--"+paperChildFlag, strings.Join(ord, ","),
		"--seed", strconv.FormatUint(seed, 10), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	start := time.Now()
	err = cmd.Run()
	lat := time.Since(start)
	if cmd.ProcessState != nil {
		recordChildRSS(cmd.ProcessState)
	}
	if err != nil {
		return lat, nil, fmt.Errorf("paper op process: %w", err)
	}
	var res paperChildResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return lat, nil, fmt.Errorf("paper op process output: %w", err)
	}
	return lat - time.Duration(res.ProbeNs), &res, nil
}

// paperCheck checks one child's report.
func paperCheck(res *paperChildResult, err error, goldens map[string][]byte) error {
	if err != nil {
		return err
	}
	if res.Err != "" {
		return errors.New(res.Err)
	}
	return checkPaper(res.Out, goldens)
}

func runPaperSmall(ctx context.Context, cfg runConfig) (*result, error) {
	res := &result{}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9a9e))
	order := func() []int { return rng.Perm(len(paperSteps)) }

	// Set-up loads the goldens and runs one warm-up op, so the binary and
	// the golden files are in the page cache before the first timed op.
	var goldens map[string][]byte
	for range paperSetups {
		start := time.Now()
		var err error
		if goldens, err = readGoldens(".", paperGoldens...); err != nil {
			return nil, err
		}
		_, child, err := paperProcess(ctx, cfg.seed, order(), false)
		res.checks.record(paperCheck(child, err, goldens))
		res.setups = append(res.setups, time.Since(start))
	}

	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	res.ops, res.window = timedLoop(window, func() time.Duration {
		lat, child, err := paperProcess(ctx, cfg.seed, order(), false)
		res.checks.record(paperCheck(child, err, goldens))
		return lat
	})
	if !cfg.trace {
		return res, nil
	}

	perOp := make(map[string][]float64)
	traced, _ := timedLoop(window, func() time.Duration {
		lat, child, err := paperProcess(ctx, cfg.seed, order(), true)
		res.checks.record(paperCheck(child, err, goldens))
		if child != nil {
			for k, v := range child.Layers {
				perOp[k] = append(perOp[k], v)
			}
		}
		return lat
	})
	layers := map[string]float64{}
	for k, vs := range perOp {
		layers[k] = median(vs)
	}
	fillTraceOverhead(layers, res, traced)
	res.layers = layers
	return res, nil
}

// classifySample re-classifies a seeded sample of the field responses the
// last traced op's characterization fetched and returns the mean time
// per redirect chain.
func classifySample(seed uint64, p *paperRun) float64 {
	if p == nil {
		return 0
	}
	var all []*measurement.Result
	for _, rep := range p.last {
		for i := range rep.Results {
			if len(rep.Results[i].Field.Chain) > 0 {
				all = append(all, &rep.Results[i])
			}
		}
	}
	if len(all) == 0 {
		return 0
	}
	rng := rand.New(rand.NewPCG(seed, 0xb10c))
	c := blockpage.NewClassifier(nil)
	const n = 2000
	start := time.Now()
	for range n {
		c.ClassifyChain(all[rng.IntN(len(all))].Field.Chain)
	}
	return us(time.Since(start)) / n
}
