// NPAC_HOT — the annotation contract for allocation-free hot paths.
//
// Marking a function NPAC_HOT states an invariant, not a hint: the body
// performs no heap allocation (no new/make_unique, no unreserved
// push_back, no local container construction) and no wall-clock reads.
// tools/npaclint enforces the allocation half statically (rule H1) over
// every annotated body, so a regression fails CI on the offending line
// instead of showing up as a perf cliff in the perfbench workloads.
//
// The macro also lowers to the compiler's hot attribute where available,
// nudging inlining and code layout for the functions the sweeps spend
// their time in (TorusNetwork incremental-index routing, GraphNetwork
// level propagation, Histogram::observe, task_seed).
//
// Callers own all scratch: an NPAC_HOT function receives pre-sized
// buffers and writes into them. If a new hot path genuinely must
// allocate (e.g. a first-call warmup), suppress per line with
// `// npaclint:allow(H1) <reason>` so the exception is reviewed.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define NPAC_HOT __attribute__((hot))
#else
#define NPAC_HOT
#endif
