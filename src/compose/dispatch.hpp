// Static composition via off-line dispatch tables (§III step 3, §IV-A, and
// Kessler/Löwe [7]): when sufficient performance prediction metadata is
// available (prediction functions, cost models, or training-run history),
// the tool evaluates the predictions for selected context scenarios and
// records each scenario's expected-best architecture as a vote in the
// runtime's dispatch table (rt::DispatchTable, the "peppher-dispatch v1"
// artifact the engine replays and peppher-lint checks).
//
// Multi-stage composition: a table that still votes for several
// architectures *narrows* the candidate set (the runtime takes the final
// choice); a table with a single architecture pins the choice entirely.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compose/ir.hpp"
#include "runtime/perfmodel.hpp"

namespace peppher::compose {

/// Predicts the execution time in seconds of a variant of architecture
/// `arch` for a call context with `bytes` total operand footprint; nullopt
/// when nothing is known.
using Predictor =
    std::function<std::optional<double>(rt::Arch arch, std::size_t bytes)>;

/// Builds the finalized dispatch table of `component`: each scenario casts
/// one vote for the architecture of the enabled variant with the lowest
/// prediction. Votes go to footprint 0 and point -1 (any footprint, any
/// program point) because scenario byte counts are not the runtime's hashed
/// footprints. Scenarios with no predictable variant cast no vote, so the
/// table is empty if nothing was predictable.
rt::DispatchTable predict_dispatch(const ComponentNode& component,
                                   const std::vector<std::size_t>& scenario_bytes,
                                   const Predictor& predict);

/// Disables every enabled variant of `component` whose architecture has no
/// vote for `component.interface.name` in the table (user-transparent
/// static narrowing from training data). The runtime runs the first enabled
/// variant of an architecture, so keeping architectures decides the same
/// choice as keeping variants. No-op when the table has no votes for the
/// component. Returns the number of variants disabled.
int narrow_with_table(ComponentNode& component, const rt::DispatchTable& table);

/// Predictor backed by recorded training history (regression over the
/// recorded sizes of the component's interface, per architecture).
Predictor history_predictor(const rt::PerfRegistry& registry,
                            const std::string& component_name);

}  // namespace peppher::compose
