// Umbrella header: the public API of the manywalks library.
//
// Include this for everything, or pick the specific headers:
//   graph/…   graph type, generators, properties, I/O
//   linalg/…  Markov operators, mixing time, spectra
//   theory/…  closed forms, paper bounds, exact oracles
//   walk/…    the simulation engine
//   mc/…      Monte-Carlo estimation
//   core/…    paper-facing experiments (families, profiles, regimes)
#pragma once

#include "core/analyzer.hpp"
#include "core/experiments.hpp"
#include "core/families.hpp"
#include "core/regime.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "linalg/dense.hpp"
#include "linalg/markov.hpp"
#include "linalg/spectral.hpp"
#include "mc/estimators.hpp"
#include "mc/monte_carlo.hpp"
#include "theory/bounds.hpp"
#include "theory/closed_forms.hpp"
#include "theory/exact.hpp"
#include "theory/finite_time.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"
#include "walk/sampling.hpp"
#include "walk/visit_tracker.hpp"
