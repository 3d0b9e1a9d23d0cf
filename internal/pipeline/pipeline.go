// Package pipeline is the one table of pipeline kinds: the paper's §3
// identify, §4 confirm and §5 characterize, plus crawl-based discovery
// (after FilteredWeb) and the censorship-mechanism survey (after "Where
// The Light Gets In"). Each Kind carries every per-kind fact the
// service, cluster, monitor and CLI layers act on — wire name, snapshot
// kind, virtual-clock offset, whether the world needs the mechanism
// roster, the target set a run fans out over — and the one function
// that runs the kind against a world.
//
// Adding a kind means adding an entry to the table in this file. The
// only other per-kind code is kind-local: cluster.Merge reassembles a
// kind's document from shard fragments, and the longitudinal Diff and
// Timeline decode its stored document.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"filtermap/internal/confirm"
	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/identify"
	"filtermap/internal/longitudinal"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// Params are a run's parameters. Each kind reads only its own fields;
// Normalize drops the rest. The JSON encoding is the request schema of
// fmserve's POST /v1/{kind} endpoints.
type Params struct {
	// Products restricts identify's keyword fan-out (empty = all Table 2
	// products).
	Products []string `json:"products,omitempty"`
	// Countries bounds identify's ccTLD fan-out (empty = every country
	// in the banner index).
	Countries []string `json:"countries,omitempty"`
	// Campaign selects one Table 3 case study by key (confirm; empty =
	// all ten, chronologically).
	Campaign string `json:"campaign,omitempty"`
	// ISPs restricts the target ISPs of characterize, discover and
	// mechanisms (empty = every target).
	ISPs []string `json:"isps,omitempty"`
	// Rounds and Budget cap each discovery crawl (0 = discovery package
	// defaults).
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
}

// Result is what one run produces.
type Result struct {
	// Doc is the kind's JSON document, a report.*Doc value.
	Doc any
	// Identify is identify's raw report. Its per-product candidate sets
	// are what a cluster merge needs and the document does not carry.
	Identify *identify.Report
}

// TargetSet names the probe space a kind fans out over: the units a
// request may restrict the run to and the cluster shards it by.
type TargetSet int

const (
	// NoTargets: the kind runs whole and cannot be sharded.
	NoTargets TargetSet = iota
	// Products are the Table 2 products, selected by Params.Products.
	Products
	// CharacterizationISPs are the §5 targets (Table 3's confirmed
	// deployments), selected by Params.ISPs.
	CharacterizationISPs
	// RosterISPs are the mechanism roster's ISPs, selected by
	// Params.ISPs.
	RosterISPs
)

// List returns every member of the set in execution order.
func (t TargetSet) List() []string {
	var out []string
	switch t {
	case Products:
		for p := range fingerprint.ShodanKeywords() {
			out = append(out, p)
		}
		sort.Strings(out)
	case CharacterizationISPs:
		for _, tgt := range world.CharacterizationTargets() {
			out = append(out, tgt.ISP)
		}
	case RosterISPs:
		out = world.MechanismRosterISPs()
	}
	return out
}

// field points at the Params field that selects members of the set.
func (t TargetSet) field(p *Params) *[]string {
	switch t {
	case NoTargets:
		return nil
	case Products:
		return &p.Products
	}
	return &p.ISPs
}

// Select returns the members p restricts the run to, in List order:
// every member when p names none. Names outside the set are dropped,
// as the world's own runners drop them.
func (t TargetSet) Select(p Params) []string {
	f := t.field(&p)
	if f == nil {
		return nil
	}
	all := t.List()
	if len(*f) == 0 {
		return all
	}
	want := make(map[string]bool, len(*f))
	for _, m := range *f {
		want[m] = true
	}
	out := make([]string, 0, len(*f))
	for _, m := range all {
		if want[m] {
			out = append(out, m)
		}
	}
	return out
}

// Restrict returns p restricted to the given members.
func (t TargetSet) Restrict(p Params, members []string) Params {
	if f := t.field(&p); f != nil {
		*f = members
	}
	return p
}

// Kind is one pipeline.
type Kind struct {
	// Name is the wire name: the route POST /v1/{Name}, and the job and
	// cluster kind.
	Name string
	// Snapshot is the store kind its document is recorded under ("" =
	// never recorded: a campaign consumes its world's timeline, so a
	// rerun is not the same measurement).
	Snapshot string
	// Clock is how far a fresh world's virtual clock moves before the
	// run. 8h opens YemenNet's license window, the position the §5 CLIs
	// measure from.
	Clock time.Duration
	// Roster reports that the run needs the world built with the
	// censoring-ISP roster (world.Options.Mechanisms).
	Roster bool
	// Indexed kinds read a banner index and leave the world as they
	// found it, so a caller may share one long-lived world and its
	// once-scanned index across runs. Every other kind gets a fresh
	// world per run.
	Indexed bool
	// Targets is the probe space a run fans out over.
	Targets TargetSet
	// Run executes the pipeline on w. idx is the banner index of an
	// Indexed kind (nil scans w).
	Run func(ctx context.Context, w *world.World, idx *scanner.Index, p Params) (Result, error)

	// unit names a Targets member in validation errors.
	unit string
	// params keeps the fields of p the kind reads.
	params func(p Params) Params
}

// The table.
var (
	Identify = &Kind{
		Name: "identify", Snapshot: longitudinal.KindIdentify,
		Indexed: true, Targets: Products, Run: runIdentify, unit: "product",
		params: func(p Params) Params { return Params{Products: p.Products, Countries: p.Countries} },
	}
	Confirm = &Kind{
		Name: "confirm", Run: runConfirm,
		params: func(p Params) Params { return Params{Campaign: p.Campaign} },
	}
	Characterize = &Kind{
		Name: "characterize", Snapshot: longitudinal.KindTable4, Clock: 8 * time.Hour,
		Targets: CharacterizationISPs, Run: runCharacterize, unit: "characterization ISP",
		params: func(p Params) Params { return Params{ISPs: p.ISPs} },
	}
	Discover = &Kind{
		Name: "discover", Snapshot: longitudinal.KindDiscovery, Clock: 8 * time.Hour,
		Targets: CharacterizationISPs, Run: runDiscover, unit: "discovery ISP",
		params: func(p Params) Params { return Params{ISPs: p.ISPs, Rounds: p.Rounds, Budget: p.Budget} },
	}
	Mechanisms = &Kind{
		Name: "mechanisms", Snapshot: longitudinal.KindMechanisms, Roster: true,
		Targets: RosterISPs, Run: runMechanisms, unit: "mechanism-roster ISP",
		params: func(p Params) Params { return Params{ISPs: p.ISPs} },
	}
)

var kinds = []*Kind{Identify, Confirm, Characterize, Discover, Mechanisms}

// All returns the table in route order.
func All() []*Kind { return kinds }

// ByName looks a kind up by wire name.
func ByName(name string) (*Kind, bool) {
	for _, k := range kinds {
		if k.Name == name {
			return k, true
		}
	}
	return nil, false
}

// BySnapshot looks a kind up by the store kind it records under.
func BySnapshot(snapshot string) (*Kind, bool) {
	for _, k := range kinds {
		if k.Snapshot != "" && k.Snapshot == snapshot {
			return k, true
		}
	}
	return nil, false
}

// Shardable reports whether the cluster can fan the kind out.
func (k *Kind) Shardable() bool { return k.Targets != NoTargets }

// Normalize canonicalizes p for k: it keeps only the fields k reads,
// sorts and dedupes the lists, trims the campaign key, and rejects
// unknown targets and negative crawl caps. Equal normalized Params
// describe the same run, so their encoding can key a result cache.
func (k *Kind) Normalize(p Params) (Params, error) {
	p = k.params(p)
	p.Products = sortDedupe(p.Products)
	p.Countries = sortDedupe(p.Countries)
	p.ISPs = sortDedupe(p.ISPs)
	p.Campaign = strings.TrimSpace(p.Campaign)
	if f := k.Targets.field(&p); f != nil && len(*f) > 0 {
		known := make(map[string]bool)
		for _, m := range k.Targets.List() {
			known[m] = true
		}
		for _, m := range *f {
			if !known[m] {
				return p, fmt.Errorf("unknown %s %q", k.unit, m)
			}
		}
	}
	if p.Rounds < 0 {
		return p, fmt.Errorf("rounds must be >= 0, got %d", p.Rounds)
	}
	if p.Budget < 0 {
		return p, fmt.Errorf("budget must be >= 0, got %d", p.Budget)
	}
	return p, nil
}

// Build builds a fresh world for one run of k, its clock moved k.Clock
// past the world's start. The caller closes it.
func (k *Kind) Build(opts world.Options, engOpts ...engine.Option) (*world.World, error) {
	w, err := world.Build(opts, engOpts...)
	if err != nil {
		return nil, err
	}
	w.Clock.Advance(k.Clock)
	return w, nil
}

func sortDedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func runIdentify(ctx context.Context, w *world.World, idx *scanner.Index, p Params) (Result, error) {
	pl, err := w.IdentifyPipeline(ctx, idx)
	if err != nil {
		return Result{}, err
	}
	if len(p.Products) > 0 {
		all := fingerprint.ShodanKeywords()
		kw := make(map[string][]string, len(p.Products))
		for _, prod := range p.Products {
			kw[prod] = all[prod]
		}
		pl.Keywords = kw
	}
	if len(p.Countries) > 0 {
		pl.Countries = p.Countries
	}
	rep, err := pl.Run(ctx)
	if err != nil {
		return Result{}, err
	}
	return Result{Doc: report.IdentifyJSON(rep), Identify: rep}, nil
}

func runConfirm(ctx context.Context, w *world.World, _ *scanner.Index, p Params) (Result, error) {
	if p.Campaign == "" {
		outcomes, err := w.RunTable3(ctx)
		if err != nil {
			return Result{}, err
		}
		return Result{Doc: report.Table3JSON(outcomes)}, nil
	}
	outcome, err := w.RunPlan(ctx, p.Campaign)
	if err != nil {
		return Result{}, err
	}
	return Result{Doc: report.Table3JSON([]*confirm.Outcome{outcome})}, nil
}

func runCharacterize(ctx context.Context, w *world.World, _ *scanner.Index, p Params) (Result, error) {
	reports, err := w.RunCharacterizationFor(ctx, p.ISPs)
	if err != nil {
		return Result{}, err
	}
	return Result{Doc: report.Table4JSON(reports)}, nil
}

func runDiscover(ctx context.Context, w *world.World, _ *scanner.Index, p Params) (Result, error) {
	targets, err := w.RunDiscovery(ctx, world.DiscoveryOptions{ISPs: p.ISPs, Rounds: p.Rounds, Budget: p.Budget})
	if err != nil {
		return Result{}, err
	}
	return Result{Doc: report.DiscoveryJSON(p.Rounds, p.Budget, DiscoveryTargets(targets), world.DiscoveredList(targets))}, nil
}

// DiscoveryTargets adapts world crawl results to the report layer.
func DiscoveryTargets(targets []world.TargetDiscovery) []report.DiscoveryTarget {
	rts := make([]report.DiscoveryTarget, 0, len(targets))
	for _, t := range targets {
		rts = append(rts, report.DiscoveryTarget{Country: t.Country, ISP: t.ISP, ASN: t.ASN, Report: t.Report})
	}
	return rts
}

func runMechanisms(ctx context.Context, w *world.World, _ *scanner.Index, p Params) (Result, error) {
	targets, err := w.RunMechanismSurveyFor(ctx, p.ISPs)
	if err != nil {
		return Result{}, err
	}
	return Result{Doc: report.MechanismsJSON(MechanismTargets(targets))}, nil
}

// MechanismTargets adapts world survey targets to the report layer.
func MechanismTargets(targets []world.MechanismSurveyTarget) []report.MechanismTarget {
	rts := make([]report.MechanismTarget, 0, len(targets))
	for _, t := range targets {
		rts = append(rts, report.MechanismTarget{Country: t.Country, ISP: t.ISP, ASN: t.ASN, Results: t.Results})
	}
	return rts
}
