// SparseLu tests: randomized equivalence against the dense BasicLu
// reference (real and complex), pattern-reused supernodal refactorization,
// pivoting on structurally zero diagonals (the MNA voltage-source branch
// shape) under any column order, singular detection on both the
// full-factor and refactor paths, preorder adoption, and the in-place
// dense solve overload.

#include "spice/matrix.h"
#include "spice/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

using catlift::spice::BasicLu;
using catlift::spice::BasicMatrix;
using catlift::spice::SparseLu;

namespace {

// Deterministic xorshift-style generator (no <random> dependency drift).
struct Rng {
    std::uint64_t s = 0x9e3779b97f4a7c15ull;
    double uniform() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return static_cast<double>(s >> 11) /
               static_cast<double>(1ull << 53);
    }
    double signed_uniform() { return 2.0 * uniform() - 1.0; }
};

/// Random sparse pattern with a guaranteed diagonal (well-posed) plus
/// `extra` off-diagonal entries; duplicates included on purpose to
/// exercise slot dedup.
std::vector<std::pair<int, int>> random_pattern(Rng& rng, int n, int extra) {
    std::vector<std::pair<int, int>> entries;
    for (int i = 0; i < n; ++i) entries.push_back({i, i});
    for (int e = 0; e < extra; ++e) {
        const int r = static_cast<int>(rng.uniform() * n);
        const int c = static_cast<int>(rng.uniform() * n);
        entries.push_back({std::min(r, n - 1), std::min(c, n - 1)});
    }
    return entries;
}

/// Random nonsingular MNA-shaped system with its values, one per entry
/// (duplicates included, summed into their slot).  `nodes` node rows carry
/// a conductance Laplacian plus a conductance to ground on every node (a
/// positive definite symmetric part) and a skew-symmetric coupling (so the
/// values are unsymmetric, like MOS transconductances).  `branches`
/// voltage-source rows carry +-1 incidence and a zero diagonal --
/// structurally absent on even branches, an explicit 0.0 on odd ones.
/// Branch j drives node j and returns through ground or a node no branch
/// drives, so the incidence block has full column rank: with x'Gx > 0
/// that makes the whole matrix nonsingular.
struct MnaSystem {
    int n = 0;
    std::vector<std::pair<int, int>> entries;
    std::vector<double> values;
    void add(int r, int c, double v) {
        entries.push_back({r, c});
        values.push_back(v);
    }
};

MnaSystem random_mna(Rng& rng, int nodes, int branches) {
    auto pick = [&](int lo, int hi) {  // uniform in [lo, hi)
        return std::min(lo + static_cast<int>(rng.uniform() * (hi - lo)),
                        hi - 1);
    };
    MnaSystem m;
    m.n = nodes + branches;
    for (int i = 0; i < nodes; ++i) m.add(i, i, 1e-3 + 1e-2 * rng.uniform());
    for (int e = 0; e < 2 * nodes; ++e) {
        const int a = pick(0, nodes);
        const int b = pick(0, nodes);
        if (a == b) continue;
        const double g = 0.1 + rng.uniform();
        const double w = rng.signed_uniform();
        m.add(a, a, g);
        m.add(b, b, g);
        m.add(a, b, -g + w);
        m.add(b, a, -g - w);
    }
    for (int j = 0; j < branches; ++j) {
        const int br = nodes + j;
        m.add(j, br, 1.0);
        m.add(br, j, 1.0);
        const int q = pick(branches - 1, nodes);  // branches - 1: ground
        if (q >= branches) {
            m.add(q, br, -1.0);
            m.add(br, q, -1.0);
        }
        if (j % 2 == 1) m.add(br, br, 0.0);
    }
    return m;
}

} // namespace

TEST(SparseLu, MatchesDenseOnRandomSystems) {
    Rng rng;
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 4 + (trial * 5) % 40;
        auto entries = random_pattern(rng, n, 3 * n);
        SparseLu<double> slu;
        const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
        ASSERT_EQ(slots.size(), entries.size());

        std::vector<double> vals(slu.nnz(), 0.0);
        BasicMatrix<double> a(static_cast<std::size_t>(n));
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const double v = rng.signed_uniform();
            const auto [r, c] = entries[e];
            vals[static_cast<std::size_t>(slots[e])] += v;
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
        }
        // Diagonal dominance => well-conditioned reference.
        for (int i = 0; i < n; ++i) {
            vals[static_cast<std::size_t>(slots[static_cast<std::size_t>(
                i)])] += 4.0;
            a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 4.0;
        }
        std::vector<double> b(static_cast<std::size_t>(n));
        for (auto& v : b) v = 10.0 * rng.signed_uniform();

        ASSERT_TRUE(slu.factor(vals));
        BasicLu<double> dlu;
        ASSERT_TRUE(dlu.factor(a));
        const auto xd = dlu.solve(b);
        const auto xs = slu.solve_copy(b);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                        xd[static_cast<std::size_t>(i)], 1e-9)
                << "trial " << trial << " i " << i;
    }
}

TEST(SparseLu, RefactorReusesPatternAndFallsBackOnPivotFloor) {
    Rng rng;
    const int n = 20;
    auto entries = random_pattern(rng, n, 4 * n);
    SparseLu<double> slu;
    const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);

    for (int round = 0; round < 8; ++round) {
        std::vector<double> vals(slu.nnz(), 0.0);
        BasicMatrix<double> a(static_cast<std::size_t>(n));
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const double v = rng.signed_uniform();
            const auto [r, c] = entries[e];
            vals[static_cast<std::size_t>(slots[e])] += v;
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
        }
        for (int i = 0; i < n; ++i) {
            vals[static_cast<std::size_t>(slots[static_cast<std::size_t>(
                i)])] += 5.0;
            a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 5.0;
        }
        ASSERT_TRUE(slu.factor(vals));
        std::vector<double> b(static_cast<std::size_t>(n));
        for (auto& v : b) v = rng.signed_uniform();
        BasicLu<double> dlu;
        ASSERT_TRUE(dlu.factor(a));
        const auto xd = dlu.solve(b);
        const auto xs = slu.solve_copy(b);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                        xd[static_cast<std::size_t>(i)], 1e-9);
    }
    // One full factorization, every later one a pattern-reused refactor.
    EXPECT_EQ(slu.full_factors(), 1u);
    EXPECT_EQ(slu.refactors(), 7u);
    EXPECT_GT(slu.supernodes(), 0u);
    EXPECT_GT(slu.ordering_seconds(), 0.0);

    // Values drifting so far that a recorded pivot collapses must fall
    // back to a fresh full factorization (which re-pivots), not fail or
    // divide by ~0.  [g 1; 1 0] with g = 1 records the diagonal pivot;
    // dropping g to 1e-14 kills that pivot but the matrix stays sound.
    SparseLu<double> vs;
    const auto vslots = vs.analyze(2, {{0, 0}, {0, 1}, {1, 0}});
    vs.set_preorder({0, 1});  // eliminate column 0 first: g is the pivot
    std::vector<double> vvals(vs.nnz(), 0.0);
    vvals[static_cast<std::size_t>(vslots[0])] = 1.0;
    vvals[static_cast<std::size_t>(vslots[1])] = 1.0;
    vvals[static_cast<std::size_t>(vslots[2])] = 1.0;
    ASSERT_TRUE(vs.factor(vvals, 1e-12));
    vvals[static_cast<std::size_t>(vslots[0])] = 1e-14;
    ASSERT_TRUE(vs.factor(vvals, 1e-12));
    EXPECT_EQ(vs.full_factors(), 2u);  // refactor refused, full re-pivoted
    const auto x2 = vs.solve_copy({1.0, 5.0});
    EXPECT_NEAR(1e-14 * x2[0] + x2[1], 1.0, 1e-9);
    EXPECT_NEAR(x2[0], 5.0, 1e-9);
}

TEST(SparseLu, ComplexMatchesDense) {
    Rng rng;
    using C = std::complex<double>;
    for (int trial = 0; trial < 10; ++trial) {
        const int n = 6 + 2 * trial;
        auto entries = random_pattern(rng, n, 3 * n);
        SparseLu<C> slu;
        const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
        std::vector<C> vals(slu.nnz(), C{});
        BasicMatrix<C> a(static_cast<std::size_t>(n));
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const C v(rng.signed_uniform(), rng.signed_uniform());
            const auto [r, c] = entries[e];
            vals[static_cast<std::size_t>(slots[e])] += v;
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
        }
        for (int i = 0; i < n; ++i) {
            vals[static_cast<std::size_t>(slots[static_cast<std::size_t>(
                i)])] += C(5.0, 1.0);
            a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) +=
                C(5.0, 1.0);
        }
        std::vector<C> b(static_cast<std::size_t>(n));
        for (auto& v : b) v = C(rng.signed_uniform(), rng.signed_uniform());
        ASSERT_TRUE(slu.factor(vals));
        BasicLu<C> dlu;
        ASSERT_TRUE(dlu.factor(a));
        const auto xd = dlu.solve(b);
        const auto xs = slu.solve_copy(b);
        for (int i = 0; i < n; ++i)
            EXPECT_LT(std::abs(xs[static_cast<std::size_t>(i)] -
                               xd[static_cast<std::size_t>(i)]),
                      1e-9);
    }
}

TEST(SparseLu, PivotsAcrossZeroDiagonal) {
    // The MNA voltage-source shape: a structurally zero diagonal on the
    // branch row.  [g 1; 1 0] x = [0; v] -> x = [v, -g v].  Row pivoting
    // inside Gilbert-Peierls must take the off-diagonal entry.
    SparseLu<double> slu;
    const auto slots = slu.analyze(2, {{0, 0}, {0, 1}, {1, 0}});
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1e-3;  // g
    vals[static_cast<std::size_t>(slots[1])] = 1.0;
    vals[static_cast<std::size_t>(slots[2])] = 1.0;
    ASSERT_TRUE(slu.factor(vals));
    const auto x = slu.solve_copy({0.0, 5.0});
    EXPECT_NEAR(x[0], 5.0, 1e-12);
    EXPECT_NEAR(x[1], -5e-3, 1e-12);
}

TEST(SparseLu, MnaSystemsFactorUnderAnyColumnOrder) {
    // Each column pivots on the largest unpivoted entry of its reach, so a
    // nonsingular MNA system -- zero diagonals on every branch row
    // included -- must factor and match the dense reference under any
    // column order, not just the minimum-degree one: a campaign hands the
    // kernel a preorder chosen for a different (the nominal) circuit.
    Rng rng;
    for (int trial = 0; trial < 20; ++trial) {
        const int nodes = 6 + trial % 15;
        const int branches = 1 + trial % 5;
        const MnaSystem m = random_mna(rng, nodes, branches);
        const auto n = static_cast<std::size_t>(m.n);
        BasicMatrix<double> a(n);
        for (std::size_t e = 0; e < m.entries.size(); ++e)
            a(static_cast<std::size_t>(m.entries[e].first),
              static_cast<std::size_t>(m.entries[e].second)) += m.values[e];
        BasicLu<double> dlu;
        ASSERT_TRUE(dlu.factor(a)) << "trial " << trial;
        std::vector<double> b(n);
        for (auto& v : b) v = rng.signed_uniform();
        const auto xd = dlu.solve(b);

        // Minimum degree (empty preorder), index order, reversed (branch
        // columns first) and five random permutations.
        std::vector<int> ident(n);
        for (std::size_t i = 0; i < n; ++i) ident[i] = static_cast<int>(i);
        std::vector<std::vector<int>> orders = {
            {}, ident, std::vector<int>(ident.rbegin(), ident.rend())};
        for (int k = 0; k < 5; ++k) {
            std::vector<int> perm = ident;
            for (std::size_t i = n - 1; i > 0; --i) {
                const auto j = static_cast<std::size_t>(
                    rng.uniform() * static_cast<double>(i + 1));
                std::swap(perm[i], perm[std::min(j, i)]);
            }
            orders.push_back(perm);
        }
        for (std::size_t o = 0; o < orders.size(); ++o) {
            SparseLu<double> slu;
            const auto slots = slu.analyze(n, m.entries);
            slu.set_preorder(orders[o]);
            std::vector<double> vals(slu.nnz(), 0.0);
            for (std::size_t e = 0; e < m.entries.size(); ++e)
                vals[static_cast<std::size_t>(slots[e])] += m.values[e];
            ASSERT_TRUE(slu.factor(vals))
                << "trial " << trial << " order " << o;
            if (!orders[o].empty()) {
                EXPECT_EQ(slu.column_order(), orders[o]);
            }
            const auto xs = slu.solve_copy(b);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::fabs(xd[i])))
                    << "trial " << trial << " order " << o << " i " << i;
        }
    }
}

TEST(SparseLu, SingularDetectedFullAndRefactor) {
    SparseLu<double> slu;
    const auto slots =
        slu.analyze(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    // Rank-1 matrix: full factorization must reject it.
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1.0;
    vals[static_cast<std::size_t>(slots[1])] = 2.0;
    vals[static_cast<std::size_t>(slots[2])] = 2.0;
    vals[static_cast<std::size_t>(slots[3])] = 4.0;
    EXPECT_FALSE(slu.factor(vals));

    // A good matrix factors; the same pattern degraded to singular must be
    // rejected on the refactor path too (and not poison later factors).
    vals = {1.0, 2.0, 2.0, 5.0};
    ASSERT_TRUE(slu.factor(vals));
    vals = {1.0, 2.0, 2.0, 4.0};
    EXPECT_FALSE(slu.factor(vals));
    vals = {3.0, 1.0, 1.0, 2.0};
    ASSERT_TRUE(slu.factor(vals));
    const auto x = slu.solve_copy({5.0, 5.0});
    EXPECT_NEAR(3.0 * x[0] + 1.0 * x[1], 5.0, 1e-12);
    EXPECT_NEAR(1.0 * x[0] + 2.0 * x[1], 5.0, 1e-12);
}

TEST(SparseLu, PivotFloorRespected) {
    // Values above the floor factor fine; dropping the whole matrix under
    // the floor must fail rather than divide by ~0.
    SparseLu<double> slu;
    const auto slots = slu.analyze(2, {{0, 0}, {1, 1}});
    std::vector<double> vals(slu.nnz(), 0.0);
    vals[static_cast<std::size_t>(slots[0])] = 1e-12;
    vals[static_cast<std::size_t>(slots[1])] = 1e-12;
    EXPECT_TRUE(slu.factor(vals, 1e-15));
    EXPECT_FALSE(slu.factor(vals, 1e-9));
}

TEST(SparseLu, PreorderAdoptedAsColumnOrder) {
    Rng rng;
    const int n = 10;
    auto entries = random_pattern(rng, n, 3 * n);
    SparseLu<double> slu;
    const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        order[static_cast<std::size_t>(i)] = n - 1 - i;  // reverse order
    slu.set_preorder(order);

    std::vector<double> vals(slu.nnz(), 0.0);
    for (std::size_t e = 0; e < entries.size(); ++e)
        vals[static_cast<std::size_t>(slots[e])] += rng.signed_uniform();
    for (int i = 0; i < n; ++i)
        vals[static_cast<std::size_t>(slots[static_cast<std::size_t>(i)])] +=
            5.0;
    ASSERT_TRUE(slu.factor(vals));
    EXPECT_EQ(slu.column_order(), order);

    // A non-permutation is rejected loudly.
    std::vector<int> bad = order;
    bad[0] = bad[1];
    EXPECT_THROW(slu.set_preorder(bad), catlift::Error);
    EXPECT_THROW(slu.set_preorder(std::vector<int>{0, 1}), catlift::Error);
}

TEST(SparseLu, SupernodalRefactorMatchesDenseOnBandedSystem) {
    // A banded system produces long runs of nested L patterns -- the
    // supernodal replay's dense inner loops do real work here.  Ten value
    // rounds through the same pattern must all match the dense reference.
    Rng rng;
    const int n = 40;
    std::vector<std::pair<int, int>> entries;
    std::vector<std::size_t> diag_entry(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        for (int j = std::max(0, i - 3); j <= std::min(n - 1, i + 3); ++j) {
            if (i == j) diag_entry[static_cast<std::size_t>(i)] = entries.size();
            entries.push_back({i, j});
        }
    SparseLu<double> slu;
    const auto slots = slu.analyze(static_cast<std::size_t>(n), entries);

    for (int round = 0; round < 10; ++round) {
        std::vector<double> vals(slu.nnz(), 0.0);
        BasicMatrix<double> a(static_cast<std::size_t>(n));
        for (std::size_t e = 0; e < entries.size(); ++e) {
            const double v = rng.signed_uniform();
            const auto [r, c] = entries[e];
            vals[static_cast<std::size_t>(slots[e])] += v;
            a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += v;
        }
        for (int i = 0; i < n; ++i) {
            vals[static_cast<std::size_t>(
                slots[diag_entry[static_cast<std::size_t>(i)]])] += 8.0;
            a(static_cast<std::size_t>(i), static_cast<std::size_t>(i)) += 8.0;
        }
        ASSERT_TRUE(slu.factor(vals));
        std::vector<double> b(static_cast<std::size_t>(n));
        for (auto& v : b) v = rng.signed_uniform();
        BasicLu<double> dlu;
        ASSERT_TRUE(dlu.factor(a));
        const auto xd = dlu.solve(b);
        const auto xs = slu.solve_copy(b);
        for (int i = 0; i < n; ++i)
            EXPECT_NEAR(xs[static_cast<std::size_t>(i)],
                        xd[static_cast<std::size_t>(i)], 1e-8)
                << "round " << round;
    }
    EXPECT_EQ(slu.full_factors(), 1u);
    EXPECT_EQ(slu.refactors(), 9u);
    // The band must actually have merged into multi-column supernodes.
    EXPECT_LT(slu.supernodes(), static_cast<std::size_t>(n));
}

TEST(DenseLu, InPlaceSolveMatchesReturningOverload) {
    BasicMatrix<double> a(3);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    a(1, 2) = 1;
    a(2, 2) = 4;
    BasicLu<double> lu;
    ASSERT_TRUE(lu.factor(a));
    const std::vector<double> b = {5.0, 10.0, 8.0};
    const auto x1 = lu.solve(b);
    std::vector<double> x2;
    lu.solve(b, x2);
    ASSERT_EQ(x2.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(x1[static_cast<std::size_t>(i)],
                         x2[static_cast<std::size_t>(i)]);
}
