// The stored-graph (--graph=FILE.mwg) experiments: the paper's k-walk
// speed-up and start-placement measurements on arbitrary graphs loaded
// from disk (storage/mapped_graph.hpp, storage/block_store.hpp).
//
// Each body runs over an engine source (mc/estimators.hpp) and is
// instantiated for InCore<CsrSubstrate> and OutOfCore. The registered
// runners open the file and pick the source from --block-walk; the tests
// call the same bodies on a graph built in memory and require
// byte-identical tables (tests/test_storage.cpp).
#pragma once

#include <string>

#include "cli/registry.hpp"

namespace manywalks::cli {

/// The mwg-speedup body: S^k curve (optionally to a partial-cover
/// --target) from --start. `source` labels the graph in the output.
template <class Engines>
ExperimentResult run_mwg_speedup_on(const Engines& engines,
                                    const std::string& source,
                                    const ExperimentParams& params,
                                    ThreadPool& pool);

/// The mwg-starts body: C^k under same-vertex / stationary / uniform
/// start placements.
template <class Engines>
ExperimentResult run_mwg_starts_on(const Engines& engines,
                                   const std::string& source,
                                   const ExperimentParams& params,
                                   ThreadPool& pool);

}  // namespace manywalks::cli
