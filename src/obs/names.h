/// \file names.h
/// Canonical counter names shared between emitters and the backward-compat
/// accessors on result structs. Naming convention:
/// `<layer>.<subject>[.<aspect>]`, dot-separated lower_snake_case segments.
/// Layers: gen, conflict, lr, ilp, pao, route, drc, lint.
///
/// This header is the only place a metric-name literal may be spelled out:
/// the `cpr_lint` rule OBS-LITERAL rejects inline `"pao.*"` / `"route.*"` /
/// `"drc.*"` / `"ilp.*"` strings everywhere else, and every constant below
/// must be mirrored in `kAll` (the duplicate/typo guard in obs_names_test
/// checks uniqueness and the naming grammar over that registry).
#pragma once

#include <array>
#include <string_view>

namespace cpr::obs::names {

// Pin access interval generation (Section 3.1).
inline constexpr std::string_view kGenIntervals = "gen.intervals.emitted";
inline constexpr std::string_view kGenShared = "gen.intervals.shared";
inline constexpr std::string_view kGenBlockedPins = "gen.pins.blocked";
// Conflict detection (Section 3.2).
inline constexpr std::string_view kConflictSets = "conflict.sets";
// LR solver (Section 3.4).
inline constexpr std::string_view kLrIterations = "lr.iterations";
inline constexpr std::string_view kLrRemovalRounds = "lr.removal.rounds";
inline constexpr std::string_view kLrReexpandUpgrades = "lr.reexpand.upgrades";
/// Subgradient loop stopped by a Deadline (the best-so-far solution is still
/// repaired and returned, so the result stays legal).
inline constexpr std::string_view kLrTimeout = "lr.timeout";
// Exact ILP path (Formula 1 via ilp::Model, LP-based branch & bound).
inline constexpr std::string_view kIlpNodes = "ilp.nodes";
inline constexpr std::string_view kIlpPivots = "ilp.lp.pivots";
inline constexpr std::string_view kIlpNotProved = "ilp.not_proved";
/// Branch & bound stopped by a Deadline (IlpStatus::TimeLimit).
inline constexpr std::string_view kIlpTimeout = "ilp.timeout";
/// Node relaxations warm-started from the parent's optimal basis (dual
/// simplex re-solve) vs. solved from scratch; warm/cold split measures how
/// often the LpBackend seam's basis hand-off actually engages.
inline constexpr std::string_view kIlpWarmSolves = "ilp.lp.warm_solves";
inline constexpr std::string_view kIlpColdSolves = "ilp.lp.cold_solves";
// Design-level optimizer (panel fan-out).
inline constexpr std::string_view kPaoPanels = "pao.panels";
inline constexpr std::string_view kPaoIntervals = "pao.intervals.generated";
inline constexpr std::string_view kPaoConflicts = "pao.conflicts.detected";
inline constexpr std::string_view kPaoUnassigned = "pao.pins.unassigned";
inline constexpr std::string_view kPaoFallbacks = "pao.solver.fallbacks";
// Per-panel degradation ladder (see DESIGN.md "Failure model").
/// The primary solver threw (or reported Failed); the panel was rescued by a
/// lower rung of the ladder. The plan is still legal.
inline constexpr std::string_view kPaoPanelFailed = "pao.panel.failed";
/// The primary solver timed out, returned an illegal/empty incumbent, or the
/// panel was solved by a fallback rung. Counted at most once per panel, and
/// mutually exclusive with pao.panel.failed.
inline constexpr std::string_view kPaoPanelDegraded = "pao.panel.degraded";
/// Ladder rung that produced the shipped assignment, summed over panels:
/// primary solves land in pao.panel.rung.primary, rescued panels in
/// rung.lr / rung.greedy (the terminal rung).
inline constexpr std::string_view kPaoRungPrimary = "pao.panel.rung.primary";
inline constexpr std::string_view kPaoRungLr = "pao.panel.rung.lr";
inline constexpr std::string_view kPaoRungGreedy = "pao.panel.rung.greedy";
/// Bytes of the compiled CSR kernels, summed across panels. Size-based (not
/// capacity-based), so the count is deterministic for a given design.
inline constexpr std::string_view kPaoKernelBytes = "pao.kernel.bytes";
/// Arena high-water mark across workers (a gauge: the value depends on how
/// panels landed on workers, so it may vary with the thread count).
inline constexpr std::string_view kPaoScratchPeakBytes =
    "pao.scratch.peak_bytes";
/// Heap allocations observed inside armed hot regions (alloc_hook.h) by the
/// bench harness's counting allocator. The release bench asserts 0: the
/// scratch-arena warmup has to absorb every allocation before the kernels
/// run (DESIGN.md §16 "Hot-path discipline").
inline constexpr std::string_view kPaoHotPathAllocs =
    "pao.alloc.hot_path_allocs";
// Optimizer phase spans (ScopedTimer names) and run notes.
inline constexpr std::string_view kPaoGenSpan = "pao.gen";
inline constexpr std::string_view kPaoConflictSpan = "pao.conflict";
inline constexpr std::string_view kPaoCompileSpan = "pao.compile";
inline constexpr std::string_view kPaoSolveSpan = "pao.solve";
inline constexpr std::string_view kPaoFallbackSpan = "pao.fallback";
inline constexpr std::string_view kPaoTotalSpan = "pao.total";
/// Note: name() of the primary solver that ran the panels.
inline constexpr std::string_view kPaoSolverNote = "pao.solver";
/// Note: status line of the last non-Ok primary solve (degradation ladder).
inline constexpr std::string_view kPaoPanelStatusNote = "pao.panel.status";
/// Note: what() of an exception caught at the panel boundary.
inline constexpr std::string_view kPaoPanelErrorNote = "pao.panel.error";
// Solver trace series (per-iteration rows).
inline constexpr std::string_view kLrIterSeries = "lr.iter";
// Routing.
inline constexpr std::string_view kRouteRrrIterations = "route.rrr.iterations";
inline constexpr std::string_view kRouteCongestedPreRrr =
    "route.congested.pre_rrr";
inline constexpr std::string_view kRouteRipups = "route.ripups";
inline constexpr std::string_view kRouteRetries = "route.retries";
inline constexpr std::string_view kRouteSearches = "route.astar.searches";
inline constexpr std::string_view kRoutePops = "route.astar.pops";
/// Largest per-worker maze search arena (`MazeScratch::footprintBytes`) of
/// one routing run. Arenas are window-sized, so this tracks the largest
/// search box, not the die. A gauge: it depends on how nets landed on
/// workers, so it may vary with the thread count.
inline constexpr std::string_view kRouteScratchPeakBytes =
    "route.scratch.peak_bytes";
/// Bytes of the routing grid's per-node state (`RoutingGrid::
/// footprintBytes`): 8 per node. A gauge like the other byte footprints,
/// though it depends only on the die, never on the thread count.
inline constexpr std::string_view kRouteGridBytes = "route.grid_bytes";
inline constexpr std::string_view kRouteDroppedSharing =
    "route.dropped.sharing";
/// A router loop stopped by a Deadline: negotiated independent waves or
/// RRR, the sequential queue or its legalization passes.
inline constexpr std::string_view kRouteTimeout = "route.timeout";
// Wave-parallel batch routing (search/commit split).
/// Waves launched by the batch router (every batched net loop contributes).
inline constexpr std::string_view kRouteBatches = "route.batches";
/// Nets deferred to a later wave because their influence box touched the
/// current wave (scheduler conflicts, not routing failures).
inline constexpr std::string_view kRouteBatchConflicts =
    "route.batch.conflicts";
/// Nets that shared their wave with at least one other net, i.e. were
/// eligible to search concurrently. Thread-count independent by design.
inline constexpr std::string_view kRouteParallelNets = "route.parallel_nets";
/// Bench series: per-thread-count RRR wall-clock rows (bench_table2_routers
/// --thread-sweep).
inline constexpr std::string_view kRouteSweepSeries = "route.sweep";
// Router phase spans. `route.drc_repair` times the sequential router's
// legalization; negotiated runs have no repair stage and never open it.
inline constexpr std::string_view kRouteIndependentSpan = "route.independent";
inline constexpr std::string_view kRouteRrrSpan = "route.rrr";
inline constexpr std::string_view kRouteDrcRepairSpan = "route.drc_repair";
inline constexpr std::string_view kRouteSignoffSpan = "route.signoff";
// DRC signoff.
inline constexpr std::string_view kDrcViolations = "drc.violations";
inline constexpr std::string_view kDrcLineEnd = "drc.violations.line_end";
inline constexpr std::string_view kDrcViaSpacing =
    "drc.violations.via_spacing";
inline constexpr std::string_view kDrcDirtyNets = "drc.nets.dirty";
// cpr_lint self-metrics (tools/lint --report; the CI lint job archives the
// cpr.report.v1 JSON so linter cost is trackable like any other phase).
inline constexpr std::string_view kLintFiles = "lint.files";
inline constexpr std::string_view kLintDiagnostics = "lint.diagnostics";
/// Unique intra-project call edges the hot-path pass resolved (hotpath.h);
/// a sudden drop means the resolver lost track of the tree.
inline constexpr std::string_view kLintCallgraphEdges =
    "lint.callgraph.edges";
/// ScopedTimer span around the whole lintTree walk.
inline constexpr std::string_view kLintRunSpan = "lint.run";
// Routing service (src/serve, DESIGN.md "Service failure model"). The
// kServeEv* constants double as the protocol's job-lifecycle event names —
// the wire format and the counters deliberately share one vocabulary.
/// Client connections accepted by the daemon, lifetime total.
inline constexpr std::string_view kServeConnections = "serve.connections";
/// Protocol frames that failed to decode (malformed JSON, missing fields).
/// The connection survives: the daemon replies with an error frame.
inline constexpr std::string_view kServeFramesBad = "serve.frames.bad";
/// accept() retries after a transient failure (aborted handshake, fd or
/// buffer exhaustion). The accept loop backs off and lives on; a sustained
/// nonzero rate means the daemon is at its fd limit.
inline constexpr std::string_view kServeAcceptRetried =
    "serve.accept.retried";
/// Jobs admitted into the bounded queue.
inline constexpr std::string_view kServeJobsAccepted = "serve.jobs.accepted";
/// Jobs refused at admission (queue full): terminal `cancelled` status.
inline constexpr std::string_view kServeJobsRejected = "serve.jobs.rejected";
/// Jobs that reached a terminal completed result (ok/degraded/timed_out).
inline constexpr std::string_view kServeJobsCompleted =
    "serve.jobs.completed";
/// Jobs that reached a terminal failed result (bad input or a contained
/// exception at the job boundary); the daemon itself never dies with them.
inline constexpr std::string_view kServeJobsFailed = "serve.jobs.failed";
/// Retry attempts scheduled after a transient (deadline-expired) outcome.
inline constexpr std::string_view kServeJobsRetried = "serve.jobs.retried";
/// Jobs drained from the queue at shutdown without running (terminal
/// `cancelled`, like an admission rejection).
inline constexpr std::string_view kServeJobsCancelled =
    "serve.jobs.cancelled";
/// Gauge: high-water mark of the queue depth (both lanes).
inline constexpr std::string_view kServeQueuePeakDepth =
    "serve.queue.peak_depth";
/// ScopedTimer span around one job attempt (load + pipeline + digest).
inline constexpr std::string_view kServeJobSpan = "serve.job";
// Protocol job-lifecycle event names (serve/protocol.h frames).
inline constexpr std::string_view kServeEvAccepted = "serve.job.accepted";
inline constexpr std::string_view kServeEvStarted = "serve.job.started";
inline constexpr std::string_view kServeEvRetrying = "serve.job.retrying";
inline constexpr std::string_view kServeEvCompleted = "serve.job.completed";
inline constexpr std::string_view kServeEvFailed = "serve.job.failed";
inline constexpr std::string_view kServeEvRejected = "serve.job.rejected";

/// Registry of every canonical name above, in declaration order. New
/// constants MUST be appended here too; obs_names_test asserts the entries
/// are unique and follow the `^[a-z]+(\.[a-z_]+)+$` grammar, which is what
/// catches a typo'd or duplicated metric name at test time rather than in a
/// dashboard.
inline constexpr std::array<std::string_view, 80> kAll = {
    kGenIntervals,        kGenShared,           kGenBlockedPins,
    kConflictSets,        kLrIterations,        kLrRemovalRounds,
    kLrReexpandUpgrades,  kLrTimeout,           kIlpNodes,
    kIlpPivots,           kIlpNotProved,        kIlpTimeout,
    kIlpWarmSolves,       kIlpColdSolves,       kPaoPanels,
    kPaoIntervals,        kPaoConflicts,        kPaoUnassigned,
    kPaoFallbacks,        kPaoPanelFailed,      kPaoPanelDegraded,
    kPaoRungPrimary,      kPaoRungLr,           kPaoRungGreedy,
    kPaoKernelBytes,      kPaoScratchPeakBytes,
    kPaoGenSpan,          kPaoConflictSpan,     kPaoCompileSpan,
    kPaoSolveSpan,        kPaoFallbackSpan,     kPaoTotalSpan,
    kPaoSolverNote,       kPaoPanelStatusNote,  kPaoPanelErrorNote,
    kLrIterSeries,        kRouteRrrIterations,  kRouteCongestedPreRrr,
    kRouteRipups,         kRouteRetries,        kRouteSearches,
    kRoutePops,           kRouteDroppedSharing, kRouteTimeout,
    kRouteBatches,        kRouteBatchConflicts, kRouteParallelNets,
    kRouteSweepSeries,    kRouteIndependentSpan, kRouteRrrSpan,
    kRouteDrcRepairSpan,  kRouteSignoffSpan,    kDrcViolations,
    kDrcLineEnd,          kDrcViaSpacing,       kDrcDirtyNets,
    kLintFiles,           kLintDiagnostics,     kLintRunSpan,
    kServeConnections,    kServeFramesBad,      kServeAcceptRetried,
    kServeJobsAccepted,   kServeJobsRejected,   kServeJobsCompleted,
    kServeJobsFailed,     kServeJobsRetried,    kServeJobsCancelled,
    kServeQueuePeakDepth, kServeJobSpan,        kServeEvAccepted,
    kServeEvStarted,      kServeEvRetrying,     kServeEvCompleted,
    kServeEvFailed,       kServeEvRejected,     kPaoHotPathAllocs,
    kLintCallgraphEdges,  kRouteScratchPeakBytes, kRouteGridBytes,
};

}  // namespace cpr::obs::names
