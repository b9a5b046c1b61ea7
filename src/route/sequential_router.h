/// \file sequential_router.h
/// Sequential pin-access-planning baseline (the PARR scheme of [12]).
///
/// Nets are routed one at a time over hard obstacles (no sharing is ever
/// allowed): shorter nets first, each attempt choosing greedy pin access on
/// the fly. A failing net is retried with a wider window, then *deferred*
/// (the paper's net-deferring / dynamic reordering); in later passes a
/// blocked net may rip up the nets occupying its cheapest probe path and
/// requeue them — the expensive sequential rip-up behaviour that Table 2's
/// runtime column quantifies. Final legalization passes (the
/// `route.drc_repair` span) reroute DRC-violating nets; nets still dirty
/// count as unrouted.
#pragma once

#include "db/design.h"
#include "route/result.h"
#include "support/deadline.h"

namespace cpr::route {

/// The scheme's fixed parameters (window margin, deferral passes, rip
/// budget, legalization passes, die-spanning retry) are constants of the
/// driver (sequential_router.cpp). `deadline` is the wall-clock budget
/// (unset = none), checked between queue pops and between legalization
/// passes; when it fires, still-queued nets stay unrouted (never
/// half-routed) and `route.timeout` is counted.
[[nodiscard]] RoutingResult routeSequential(const db::Design& design,
                                            support::Deadline deadline = {});

}  // namespace cpr::route
