package cluster

import (
	"fmt"
	"net/netip"
	"sort"

	"filtermap/internal/characterize"
	"filtermap/internal/discovery"
	"filtermap/internal/pipeline"
	"filtermap/internal/report"
	"filtermap/internal/urllist"
)

// Merge reassembles a job's fragments — one per shard, in shard order —
// into the final pipeline document, replicating the single-process
// renderer semantics exactly so the marshaled bytes match. Fragment
// order matters: it is the single-process execution order Split
// established.
func Merge(req Request, frags []*Fragment) (any, error) {
	for i, f := range frags {
		if f == nil {
			return nil, fmt.Errorf("cluster: merge %s: missing fragment %d", req.Kind, i)
		}
	}
	switch req.Kind {
	case pipeline.Identify.Name:
		return mergeIdentify(frags)
	case pipeline.Characterize.Name:
		return mergeCharacterize(frags), nil
	case pipeline.Discover.Name:
		return mergeDiscover(req, frags), nil
	case pipeline.Mechanisms.Name:
		return mergeMechanisms(frags), nil
	default:
		return nil, fmt.Errorf("cluster: kind %q is not mergeable", req.Kind)
	}
}

// mergeIdentify rebuilds an IdentifyDoc from per-product shards. The
// subtleties mirror internal/identify:
//
//   - CandidateCount is the distinct-IP union across products (a host
//     surfaced by two products' keywords counts once).
//   - Validation returns every product's matches for a candidate
//     regardless of which keyword surfaced it, so the same installation
//     appearing in two shards is byte-identical and dedupes by IP.
//   - Installations sort by *numeric* address order (netip.Addr.Less),
//     not lexicographically.
//   - Stage errors dedupe by (stage, target): the single process
//     validates each candidate once and does one bulk whois, while two
//     shards sharing a candidate each record the same failure.
func mergeIdentify(frags []*Fragment) (report.IdentifyDoc, error) {
	var doc report.IdentifyDoc

	candidates := make(map[string]bool)
	seenInstall := make(map[string]bool)
	type addrInstall struct {
		addr netip.Addr
		doc  report.InstallationDoc
	}
	var installs []addrInstall
	seenStage := make(map[string]bool)

	for _, f := range frags {
		for _, addrs := range f.Candidates {
			for _, a := range addrs {
				candidates[a] = true
			}
		}
		for _, inst := range f.Installations {
			if seenInstall[inst.IP] {
				continue
			}
			seenInstall[inst.IP] = true
			addr, err := netip.ParseAddr(inst.IP)
			if err != nil {
				return doc, fmt.Errorf("cluster: merge identify: bad installation IP %q: %v", inst.IP, err)
			}
			installs = append(installs, addrInstall{addr: addr, doc: inst})
		}
		doc.QueryErrors = append(doc.QueryErrors, f.QueryErrors...)
		for _, se := range f.StageErrors {
			key := se.Stage + "\x00" + se.Target
			if seenStage[key] {
				continue
			}
			seenStage[key] = true
			doc.StageErrors = append(doc.StageErrors, se)
		}
	}

	sort.Slice(installs, func(i, j int) bool { return installs[i].addr.Less(installs[j].addr) })
	for _, ai := range installs {
		doc.Installations = append(doc.Installations, ai.doc)
	}
	sort.Slice(doc.QueryErrors, func(i, j int) bool {
		a, b := doc.QueryErrors[i], doc.QueryErrors[j]
		if a.Product != b.Product {
			return a.Product < b.Product
		}
		return a.Query < b.Query
	})
	sort.Slice(doc.StageErrors, func(i, j int) bool {
		a, b := doc.StageErrors[i], doc.StageErrors[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Target < b.Target
	})

	doc.CandidateCount = len(candidates)
	doc.ValidatedCount = len(doc.Installations)
	if doc.CandidateCount > 0 {
		doc.FalsePositiveRate = float64(doc.CandidateCount-doc.ValidatedCount) / float64(doc.CandidateCount)
	}
	doc.ProductCountries = productCountries(doc.Installations)
	doc.Degraded = len(doc.StageErrors) > 0 || len(doc.QueryErrors) > 0
	return doc, nil
}

// productCountries recomputes the Figure 1 map from merged
// installations, matching identify.Report.ProductCountries (always a
// non-nil map; countries sorted; unknown countries skipped).
func productCountries(installs []report.InstallationDoc) map[string][]string {
	set := make(map[string]map[string]bool)
	for _, inst := range installs {
		if inst.Country == "" {
			continue
		}
		for _, p := range inst.Products {
			if set[p] == nil {
				set[p] = make(map[string]bool)
			}
			set[p][inst.Country] = true
		}
	}
	out := make(map[string][]string, len(set))
	for p, countries := range set {
		list := make([]string, 0, len(countries))
		for c := range countries {
			list = append(list, c)
		}
		sort.Strings(list)
		out[p] = list
	}
	return out
}

// mergeCharacterize rebuilds a Table4Doc: columns from the category
// catalog, rows re-sorted globally by (product, ASN) — the Matrix order,
// with unique keys across targets — and per-target reports concatenated
// in shard (= target) order.
func mergeCharacterize(frags []*Fragment) report.Table4Doc {
	var doc report.Table4Doc
	for _, code := range characterize.Table4Columns() {
		col := report.Table4ColumnDoc{Code: code, Name: code}
		if cat, ok := urllist.CategoryByCode(code); ok {
			col.Name = cat.Name
		}
		doc.Columns = append(doc.Columns, col)
	}
	for _, f := range frags {
		doc.Rows = append(doc.Rows, f.Table4Rows...)
		for _, rep := range f.Reports {
			if rep.Degraded {
				doc.Degraded = true
			}
			doc.Reports = append(doc.Reports, rep)
		}
	}
	sort.Slice(doc.Rows, func(i, j int) bool {
		if doc.Rows[i].Product != doc.Rows[j].Product {
			return doc.Rows[i].Product < doc.Rows[j].Product
		}
		return doc.Rows[i].ASN < doc.Rows[j].ASN
	})
	return doc
}

// mergeDiscover rebuilds a DiscoveryDoc: targets concatenated in shard
// order and the synthetic "discovered" list reassembled from the novel
// findings — urllist.DiscoveredList dedupes by URL and sorts, so the
// result is independent of which shard found what first.
func mergeDiscover(req Request, frags []*Fragment) report.DiscoveryDoc {
	rounds, budget := req.Rounds, req.Budget
	if rounds <= 0 {
		rounds = discovery.DefaultRounds
	}
	if budget <= 0 {
		budget = discovery.DefaultBudget
	}
	doc := report.DiscoveryDoc{Rounds: rounds, Budget: budget}
	var novel []urllist.Entry
	for _, f := range frags {
		for _, t := range f.Discovery {
			if t.Degraded {
				doc.Degraded = true
			}
			doc.Targets = append(doc.Targets, t)
			for _, finding := range t.Findings {
				if finding.Novel {
					novel = append(novel, urllist.Entry{URL: finding.URL, Domain: finding.Domain, Category: finding.Category})
				}
			}
		}
	}
	for _, e := range urllist.DiscoveredList(novel).Entries {
		doc.Discovered = append(doc.Discovered, report.DiscoveredURLDoc{
			URL:      e.URL,
			Domain:   e.Domain,
			Category: e.Category,
		})
	}
	return doc
}

// mergeMechanisms concatenates per-ISP docs in shard (= roster) order —
// MechanismsJSON builds each entry purely per-target, so concatenation
// is the whole merge.
func mergeMechanisms(frags []*Fragment) report.MechanismsDoc {
	var doc report.MechanismsDoc
	for _, f := range frags {
		for _, m := range f.Mechanisms {
			if len(m.Degraded) > 0 {
				doc.Degraded = true
			}
			doc.Mechanisms = append(doc.Mechanisms, m)
		}
	}
	return doc
}
