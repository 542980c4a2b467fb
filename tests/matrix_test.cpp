// Dense LU solver tests.

#include "spice/matrix.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

// Count every global operator new in this binary, so a test can prove a
// code path never touches the heap.
namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

void* operator new(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

using catlift::spice::LuSolver;
using catlift::spice::Matrix;

TEST(Matrix, SolveIdentity) {
    Matrix a(3);
    for (std::size_t i = 0; i < 3; ++i) a(i, i) = 1.0;
    LuSolver lu;
    ASSERT_TRUE(lu.factor(a));
    auto x = lu.solve({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(x[0], 1.0);
    EXPECT_DOUBLE_EQ(x[1], 2.0);
    EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(Matrix, SolveKnownSystem) {
    // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
    Matrix a(2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    LuSolver lu;
    ASSERT_TRUE(lu.factor(a));
    auto x = lu.solve({5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, PivotingHandlesZeroDiagonal) {
    // Leading zero on the diagonal forces a row swap.
    Matrix a(2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    LuSolver lu;
    ASSERT_TRUE(lu.factor(a));
    auto x = lu.solve({3.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Matrix, SingularDetected) {
    Matrix a(2);
    a(0, 0) = 1;
    a(0, 1) = 2;
    a(1, 0) = 2;
    a(1, 1) = 4;
    LuSolver lu;
    EXPECT_FALSE(lu.factor(a));
}

TEST(Matrix, SolveWithoutFactorThrows) {
    LuSolver lu;
    EXPECT_THROW(lu.solve({1.0}), catlift::Error);
}

TEST(Matrix, ResidualSmallOnRandomSystems) {
    // Property: ||Ax - b|| is tiny for a batch of pseudo-random systems.
    std::uint64_t s = 12345;
    auto rnd = [&]() {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(static_cast<std::int64_t>(s >> 11)) /
               static_cast<double>(1ll << 52) - 1.0;
    };
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 8;
        Matrix a(n);
        std::vector<double> b(n);
        for (std::size_t i = 0; i < n; ++i) {
            b[i] = rnd() * 10;
            for (std::size_t j = 0; j < n; ++j) a(i, j) = rnd();
            a(i, i) += 4.0;  // diagonally dominant -> well conditioned
        }
        LuSolver lu;
        ASSERT_TRUE(lu.factor(a));
        const auto x = lu.solve(b);
        for (std::size_t i = 0; i < n; ++i) {
            double r = -b[i];
            for (std::size_t j = 0; j < n; ++j) r += a(i, j) * x[j];
            EXPECT_LT(std::fabs(r), 1e-10);
        }
    }
}

TEST(Matrix, FactorAndSolveAllocateNothingAfterWarmUp) {
    // The Newton hot path factors and solves once per iteration; after the
    // first factorization has sized the buffers, neither call may reach
    // the heap (not even to build the message of a check that passes).
    const std::size_t n = 8;
    Matrix a(n);
    std::vector<double> b(n, 1.0), x;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j)
            a(i, j) = 0.1 * static_cast<double>((i * 7 + j * 3) % 5);
        a(i, i) += 4.0;
    }
    LuSolver lu;
    ASSERT_TRUE(lu.factor(a));
    lu.solve(b, x);
    const std::size_t before = g_allocations.load();
    bool ok = true;
    for (int rep = 0; rep < 100; ++rep) {
        ok = lu.factor(a) && ok;
        lu.solve(b, x);
    }
    const std::size_t allocated = g_allocations.load() - before;
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocated, 0u);
}
