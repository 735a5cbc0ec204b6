// Package hotalloc enforces the zero-allocation discipline on
// //cs:hotpath-marked code regions. The paper's premise is that stolen
// cycles are only profitable while the per-period overhead c stays
// small against committed work (recurrence 3.6); a heap allocation in
// the episode or Monte-Carlo inner loop is exactly such a hidden c,
// invisible in a code review and unmeasured until a benchmark
// regresses. The analyzer makes the invariant static: a //cs:hotpath
// annotation on a function declares "everything reachable from here is
// allocation-free", the callgraph package supplies the reachable set
// (static edges, CHA-resolved interface calls, cross-package via
// session facts), and every heap-allocating construct in that set is a
// finding:
//
//   - make/new and slice, map or &composite literals — unless the
//     result has constant size and provably never escapes the frame
//   - append whose destination has no provable capacity reservation
//     (a dataflow fixpoint tracks explicit-capacity makes and s[:0]
//     reuse through the CFG)
//   - interface boxing at call sites, assignments and returns
//   - closures that capture variables (worse when they capture a loop
//     variable: one allocation per iteration)
//   - map iteration, fmt calls and string concatenation
//
// Allocations a hot function performs deliberately — cold-start setup,
// free-list miss paths, caller-owned result buffers — are suppressed
// in place with //lint:allow hotalloc <reason>; the suppression is
// applied before the function's allocation summary is exported, so an
// importing package's walk never re-reports a justified site.
// Allocations in functions reached across a package boundary are
// reported at the last local call site on the witness chain (the only
// position the analyzed package can anchor a diagnostic to), naming
// the allocating function and its first sites.
package hotalloc

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Name is the analyzer's name, the token //lint:allow suppressions
// use.
const Name = "hotalloc"

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "flag heap allocations reachable from //cs:hotpath roots (the zero-alloc hot-path budget)",
	Run:  run,
}

// FactsNamespace keys hotalloc's per-function allocation summaries in
// an analysis.Session.
const FactsNamespace = "hotalloc"

// An AllocSite is one heap-allocating construct in a function body, as
// exported in facts. Pos is a short "file.go:line" anchor (base
// filename, so the string is stable across checkouts); Desc is the
// human fragment diagnostics embed.
type AllocSite struct {
	Pos  string
	Desc string
}

// Sites maps a function's full name to its unsuppressed allocation
// sites — the per-package facts value. Sites carry //lint:allow
// filtering already applied in the defining package, so an importer
// never re-reports an allocation its owner justified.
type Sites map[string][]AllocSite

// maxSitesInMessage bounds how many allocation sites a cross-package
// finding enumerates; the rest are summarized by count.
const maxSitesInMessage = 2

// localSites collects every local function's unsuppressed allocation
// sites, keyed by full name, and exports them as facts.
func localSites(pass *analysis.Pass, g *callgraph.Graph) map[string][]localSite {
	local := make(map[string][]localSite)
	sup := analysis.CollectSuppressions(pass.Fset, pass.Files)
	exported := make(Sites)
	for _, fi := range g.Flow.Funcs {
		all := collectSites(pass, fi)
		kept := all[:0]
		for _, s := range all {
			if sup.Allowed(pass.Fset, s.pos, Name) {
				continue
			}
			kept = append(kept, s)
		}
		if len(kept) == 0 {
			continue
		}
		name := fi.Obj.FullName()
		local[name] = kept
		sites := make([]AllocSite, len(kept))
		for i, s := range kept {
			sites[i] = s.exported(pass.Fset)
		}
		exported[name] = sites
	}
	pass.ExportFacts(FactsNamespace, exported)
	return local
}

func run(pass *analysis.Pass) error {
	g := callgraph.Of(pass)
	local := localSites(pass, g)
	for _, ba := range g.BadAnnots {
		pass.Reportf(ba.Pos, "malformed //cs:hotpath annotation: %s", ba.Msg)
	}

	// reportedLocal dedups a site reached from several roots; the first
	// root (in declaration order) names it. reportedRemote dedups
	// cross-package findings per (gateway, target) pair.
	reportedLocal := make(map[localSite]bool)
	reportedRemote := make(map[string]bool)

	for _, root := range g.Roots {
		reach := g.ReachableFrom(root.Name)
		for _, name := range reach.Order {
			if g.IsLocal(name) {
				for _, s := range local[name] {
					if reportedLocal[s] {
						continue
					}
					reportedLocal[s] = true
					pass.ReportRangef(s, "hot path %q: %s", root.Label, s.desc)
				}
				continue
			}
			remote := remoteSites(pass, name)
			if len(remote) == 0 {
				continue
			}
			edge := reach.Parent[name]
			if edge.Gateway == nil {
				continue // unreachable in practice: a non-local root
			}
			key := shortPos(pass.Fset, edge.Gateway.Call.Pos()) + "|" + name
			if reportedRemote[key] {
				continue
			}
			reportedRemote[key] = true
			pass.ReportRangef(edge.Gateway.Call,
				"hot path %q: call chain %s reaches %s, which allocates: %s",
				root.Label, chainString(reach.Chain(name)), shortName(name), describe(remote))
		}
	}
	return nil
}

// remoteSites returns the exported allocation summary of an imported
// function, empty when it has none (or is outside the analyzed world).
func remoteSites(pass *analysis.Pass, name string) []AllocSite {
	path := callgraph.PkgPathOf(name)
	if path == "" || path == pass.Pkg.Path() {
		return nil
	}
	sites, _ := pass.Facts(path, FactsNamespace).(Sites)
	return sites[name]
}

// chainString renders a witness chain with short function names:
// "nowsim.runEpisode -> (*nowsim.ProgressivePolicy).NextPeriod ->
// (*core.Progressive).NextPeriod".
func chainString(chain []string) string {
	parts := make([]string, len(chain))
	for i, name := range chain {
		parts[i] = shortName(name)
	}
	return strings.Join(parts, " -> ")
}

// shortName compresses a full name for diagnostics: package path down
// to its base, receiver parens kept.
func shortName(full string) string {
	star, rest := "", full
	if strings.HasPrefix(rest, "(") && strings.Contains(rest, ")") {
		inner := rest[1:strings.Index(rest, ")")]
		method := rest[strings.Index(rest, ")")+1:]
		if strings.HasPrefix(inner, "*") {
			star, inner = "*", inner[1:]
		}
		return "(" + star + base(inner) + ")" + method
	}
	return base(rest)
}

func base(qualified string) string {
	if i := strings.LastIndex(qualified, "/"); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

func describe(sites []AllocSite) string {
	var b strings.Builder
	for i, s := range sites {
		if i == maxSitesInMessage {
			fmt.Fprintf(&b, " (+%d more)", len(sites)-maxSitesInMessage)
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s at %s", s.Desc, s.Pos)
	}
	return b.String()
}
