#!/usr/bin/env python3
"""Unit tests for the manywalks-lint rule engine.

Every rule is proven twice: it fires on a crafted violation, and it stays
quiet on the fixed form of the same code. The lexer and the NOLINT escape
hatch get their own coverage. Run directly or via ctest (lint_rules_unit).
"""

import sys
import os
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import manywalks_lint as ml


def lint(text, relpath="src/walk/cover.cpp"):
    return ml.lint_text(relpath, relpath, text)


def rules_fired(text, relpath="src/walk/cover.cpp"):
    return {f.rule for f in lint(text, relpath)}


class LexerTest(unittest.TestCase):
    def test_line_comments_are_blanked(self):
        code = ml.strip_comments_and_literals("int x; // std::mt19937\nint y;")
        self.assertNotIn("mt19937", code)
        self.assertIn("int y;", code)

    def test_block_comments_preserve_line_numbers(self):
        text = "a;\n/* line\nline\nline */\nb;"
        code = ml.strip_comments_and_literals(text)
        self.assertEqual(code.count("\n"), text.count("\n"))
        self.assertEqual(code.splitlines()[4], "b;")

    def test_string_and_char_literals_are_blanked(self):
        code = ml.strip_comments_and_literals(
            'const char* s = "assert(rand())"; char c = \'x\';')
        self.assertNotIn("assert", code)
        self.assertNotIn("rand", code)
        self.assertIn('" ', code)  # quotes survive, contents do not

    def test_escaped_quote_does_not_end_literal(self):
        code = ml.strip_comments_and_literals('auto s = "a\\"rand()"; int z;')
        self.assertNotIn("rand", code)
        self.assertIn("int z;", code)

    def test_raw_strings_are_blanked(self):
        text = 'auto s = R"(call rand() here)"; int after;'
        code = ml.strip_comments_and_literals(text)
        self.assertNotIn("rand", code)
        self.assertIn("int after;", code)

    def test_comment_inside_string_is_not_a_comment(self):
        code = ml.strip_comments_and_literals('auto url = "http://x"; int k;')
        self.assertIn("int k;", code)


class RawRngRuleTest(unittest.TestCase):
    def test_fires_on_mt19937(self):
        self.assertIn("manywalks-raw-rng",
                      rules_fired("std::mt19937 gen(42);\n"))

    def test_fires_on_mt19937_64(self):
        self.assertIn("manywalks-raw-rng",
                      rules_fired("std::mt19937_64 gen;\n"))

    def test_fires_on_random_device(self):
        self.assertIn("manywalks-raw-rng",
                      rules_fired("std::random_device rd;\n"))

    def test_fires_on_c_rand(self):
        self.assertIn("manywalks-raw-rng",
                      rules_fired("int r = rand() % n;\n"))

    def test_quiet_on_the_fixed_form(self):
        fixed = ("Rng rng(seed);\n"
                 "const auto draw = rng.uniform_below(n);\n")
        self.assertEqual(rules_fired(fixed), set())

    def test_quiet_on_identifiers_containing_rand(self):
        ok = ("Graph g = make_random_regular(n, d, rng);\n"
              "double x = rng.uniform01();\n"
              "auto operand(int);\n")
        self.assertEqual(rules_fired(ok), set())

    def test_rng_hpp_itself_is_exempt(self):
        text = "std::mt19937_64 engine_;\n"
        self.assertEqual(rules_fired(text, relpath="src/util/rng.hpp"), set())

    def test_mention_in_comment_is_ignored(self):
        self.assertEqual(
            rules_fired("// seeded like std::mt19937 would be\nint x;\n"),
            set())


class UnorderedIterationRuleTest(unittest.TestCase):
    VIOLATION = (
        "#include <unordered_map>\n"
        "void emit(Sink& sink) {\n"
        "  std::unordered_map<Vertex, double> means;\n"
        "  for (const auto& [v, m] : means) sink.row(v, m);\n"
        "}\n")

    FIXED = (
        "#include <map>\n"
        "void emit(Sink& sink) {\n"
        "  std::map<Vertex, double> means;\n"
        "  for (const auto& [v, m] : means) sink.row(v, m);\n"
        "}\n")

    def test_fires_on_range_for_over_unordered_map(self):
        self.assertIn("manywalks-unordered-iter", rules_fired(self.VIOLATION))

    def test_quiet_on_ordered_map(self):
        self.assertEqual(rules_fired(self.FIXED), set())

    def test_fires_on_begin_end(self):
        text = ("std::unordered_set<std::uint64_t> edges;\n"
                "auto it = edges.begin();\n")
        self.assertIn("manywalks-unordered-iter", rules_fired(text))

    def test_quiet_on_membership_operations(self):
        text = ("std::unordered_set<std::uint64_t> edges;\n"
                "edges.reserve(m);\n"
                "if (edges.contains(key)) return;\n"
                "edges.insert(key);\n"
                "edges.erase(key);\n"
                "if (edges.count(key)) return;\n"
                "auto hit = edges.find(key);\n")
        self.assertEqual(rules_fired(text), set())

    def test_multiline_declaration_is_tracked(self):
        text = ("std::unordered_map<std::uint64_t,\n"
                "                   std::vector<double>> table;\n"
                "for (auto& entry : table) use(entry);\n")
        self.assertIn("manywalks-unordered-iter", rules_fired(text))


class BareAssertRuleTest(unittest.TestCase):
    def test_fires_on_bare_assert(self):
        self.assertIn("manywalks-bare-assert",
                      rules_fired("assert(n > 0);\n"))

    def test_quiet_on_the_fixed_form(self):
        fixed = ('MW_REQUIRE(n > 0, "need a vertex");\n'
                 "MW_ASSERT(offsets.back() == arcs);\n")
        self.assertEqual(rules_fired(fixed), set())

    def test_quiet_on_static_assert(self):
        self.assertEqual(
            rules_fired("static_assert(sizeof(Vertex) == 4);\n"), set())

    def test_quiet_on_method_named_assert(self):
        # foo.assert(...) is not the C assert macro (gtest matchers etc.).
        self.assertEqual(rules_fired("checker.assert(x);\n"), set())


class FloatStatisticsRuleTest(unittest.TestCase):
    def test_fires_in_estimator_code(self):
        fired = rules_fired("float mean = 0;\n",
                            relpath="src/mc/estimators.cpp")
        self.assertIn("manywalks-float-stats", fired)

    def test_fires_in_stats_util(self):
        fired = rules_fired("std::vector<float> samples;\n",
                            relpath="src/util/stats.hpp")
        self.assertIn("manywalks-float-stats", fired)

    def test_quiet_on_the_fixed_form(self):
        fired = rules_fired("double mean = 0;\n",
                            relpath="src/mc/estimators.cpp")
        self.assertEqual(fired, set())

    def test_out_of_scope_paths_are_not_checked(self):
        # float is allowed outside estimator/statistics code (e.g. a future
        # GPU packing layer under src/walk or src/storage).
        fired = rules_fired("float packed;\n", relpath="src/storage/mwg.cpp")
        self.assertEqual(fired, set())

    def test_quiet_on_identifiers_containing_float(self):
        fired = rules_fired("auto x = float_of(y); int afloat = 0;\n",
                            relpath="src/mc/estimators.cpp")
        self.assertNotIn("manywalks-float-stats", fired)


class StrayAtomicRuleTest(unittest.TestCase):
    def test_fires_on_std_atomic(self):
        fired = rules_fired("std::atomic<std::uint64_t> hits{0};\n",
                            relpath="src/mc/monte_carlo.cpp")
        self.assertIn("manywalks-stray-atomic", fired)

    def test_fires_on_atomic_flag_and_atomic_ref(self):
        text = ("std::atomic_flag busy = ATOMIC_FLAG_INIT;\n"
                "std::atomic_ref<int> ref(plain);\n")
        fired = rules_fired(text, relpath="src/walk/engine.hpp")
        self.assertIn("manywalks-stray-atomic", fired)

    def test_fires_on_free_function_form(self):
        fired = rules_fired("std::atomic_thread_fence("
                            "std::memory_order_seq_cst);\n")
        self.assertIn("manywalks-stray-atomic", fired)

    def test_fires_in_visit_tracker(self):
        text = "std::atomic<std::uint64_t>* words_;\n"
        self.assertIn(
            "manywalks-stray-atomic",
            rules_fired(text, relpath="src/walk/visit_tracker.hpp"))

    def test_thread_pool_is_exempt(self):
        text = "std::atomic<unsigned> arrived_{0};\n"
        for relpath in ("src/util/thread_pool.hpp",
                        "src/util/thread_pool.cpp"):
            self.assertEqual(rules_fired(text, relpath=relpath), set())

    def test_quiet_on_the_fixed_form(self):
        fixed = ("tracker.visit(shard, v);\n"
                 "barrier.arrive_and_wait();\n")
        self.assertEqual(rules_fired(fixed), set())

    def test_quiet_on_mention_in_comment(self):
        self.assertEqual(
            rules_fired("// relaxed std::atomic would race here\nint x;\n"),
            set())

    def test_quiet_on_unqualified_identifier(self):
        # Repo style always writes std::atomic; a local named `atomic_ops`
        # or similar must not trip a lexer-level rule.
        self.assertEqual(rules_fired("int atomic_ops = 0;\n"), set())


class MmapOutsideStorageRuleTest(unittest.TestCase):
    def test_fires_on_mmap_outside_storage(self):
        fired = rules_fired(
            "void* p = mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);\n",
            relpath="src/walk/block_engine.cpp")
        self.assertIn("manywalks-mmap-outside-storage", fired)

    def test_fires_on_qualified_and_advice_calls(self):
        text = ("::munmap(p, n);\n"
                "madvise(p, n, MADV_SEQUENTIAL);\n"
                "posix_madvise(p, n, POSIX_MADV_WILLNEED);\n")
        fired = rules_fired(text, relpath="src/cli/graph_tool.cpp")
        self.assertIn("manywalks-mmap-outside-storage", fired)

    def test_storage_layer_is_exempt(self):
        text = ("void* p = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);\n"
                "::madvise(p, n, MADV_SEQUENTIAL);\n")
        for relpath in ("src/storage/mapped_graph.cpp",
                        "src/storage/block_store.cpp"):
            self.assertEqual(rules_fired(text, relpath=relpath), set())

    def test_quiet_on_the_fixed_form(self):
        fixed = "const std::byte* p = cache.acquire(begin, end);\n"
        self.assertEqual(
            rules_fired(fixed, relpath="src/walk/block_engine.cpp"), set())

    def test_quiet_on_identifiers_and_member_calls(self):
        ok = ("int remapped = 0;\n"
              "store.mmap(region);\n"           # repo-owned wrapper method
              "auto x = mmap_like_helper(y);\n")
        self.assertEqual(
            rules_fired(ok, relpath="src/walk/block_engine.cpp"), set())

    def test_quiet_on_mention_in_comment(self):
        self.assertEqual(
            rules_fired("// the storage layer calls madvise for us\nint x;\n",
                        relpath="src/walk/block_engine.cpp"),
            set())


class RawClockRuleTest(unittest.TestCase):
    def test_fires_on_chrono_include(self):
        fired = rules_fired("#include <chrono>\n",
                            relpath="src/walk/engine.hpp")
        self.assertIn("manywalks-raw-clock", fired)

    def test_fires_on_steady_clock_and_std_chrono(self):
        text = ("auto t0 = std::chrono::steady_clock::now();\n"
                "std::chrono::duration<double> d = t1 - t0;\n")
        fired = rules_fired(text, relpath="src/mc/monte_carlo.cpp")
        self.assertIn("manywalks-raw-clock", fired)

    def test_fires_on_clock_gettime_and_gettimeofday(self):
        text = ("clock_gettime(CLOCK_MONOTONIC, &ts);\n"
                "gettimeofday(&tv, nullptr);\n")
        fired = rules_fired(text, relpath="src/cli/driver.cpp")
        self.assertIn("manywalks-raw-clock", fired)

    def test_obs_layer_timer_and_bench_are_exempt(self):
        text = ("#include <chrono>\n"
                "auto now = std::chrono::steady_clock::now();\n"
                "clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);\n")
        for relpath in ("src/obs/trace.cpp", "src/obs/progress.cpp",
                        "src/util/timer.hpp", "bench/bench_engine.cpp"):
            self.assertEqual(rules_fired(text, relpath=relpath), set(),
                             relpath)

    def test_quiet_on_the_fixed_form(self):
        fixed = ("Stopwatch watch;\n"
                 "result.seconds = watch.seconds();\n")
        self.assertEqual(
            rules_fired(fixed, relpath="src/mc/monte_carlo.cpp"), set())

    def test_quiet_on_identifiers_and_member_calls(self):
        ok = ("int clock_cycles = 0;\n"
              "timer.clock();\n"            # member call on a repo wrapper
              "auto wall_clock_note = 1;\n")
        self.assertEqual(
            rules_fired(ok, relpath="src/walk/engine.hpp"), set())

    def test_quiet_on_mention_in_comment(self):
        self.assertEqual(
            rules_fired("// never read steady_clock here\nint x;\n",
                        relpath="src/walk/engine.hpp"),
            set())


class NolintEscapeTest(unittest.TestCase):
    def test_nolint_on_the_same_line_suppresses(self):
        text = "int r = rand();  // NOLINT(manywalks-raw-rng): legacy shim\n"
        self.assertEqual(rules_fired(text), set())

    def test_nolintnextline_suppresses_the_next_line(self):
        text = ("// NOLINTNEXTLINE(manywalks-bare-assert): gtest helper\n"
                "assert(ok);\n")
        self.assertEqual(rules_fired(text), set())

    def test_nolint_for_a_different_rule_does_not_suppress(self):
        text = "int r = rand();  // NOLINT(manywalks-bare-assert): wrong\n"
        self.assertIn("manywalks-raw-rng", rules_fired(text))

    def test_bare_nolint_without_rule_does_not_suppress(self):
        # The escape must name the rule so the inventory stays auditable.
        text = "int r = rand();  // NOLINT\n"
        self.assertIn("manywalks-raw-rng", rules_fired(text))

    def test_nolint_covers_multiple_rules(self):
        text = ("int r = rand();  "
                "// NOLINT(manywalks-raw-rng, manywalks-bare-assert): both\n")
        self.assertEqual(rules_fired(text), set())


class FindingFormatTest(unittest.TestCase):
    def test_position_is_line_and_column(self):
        findings = lint("int a;\nint r = rand();\n")
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 2)
        self.assertEqual(findings[0].col, 9)
        self.assertIn("src/walk/cover.cpp:2:9: [manywalks-raw-rng]",
                      findings[0].format())


if __name__ == "__main__":
    unittest.main()
