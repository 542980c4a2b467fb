// catlift/geom/base.h
//
// Foundation definitions shared by every catlift library: the error type,
// checked narrowing, and the physical-unit conventions.
//
// Conventions
// -----------
//  * Layout coordinates are exact 64-bit integers in *nanometres*
//    (geom::Coord).  All geometry predicates are therefore exact; doubles
//    appear only at API edges (micron helpers) and in probability math.
//  * Electrical quantities are SI doubles (volts, amperes, ohms, farads,
//    seconds).

#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace catlift {

/// Exception type thrown by every catlift library on contract violation or
/// malformed input.  Carries a plain-text message; callers that need richer
/// diagnostics catch at tool boundaries and re-render.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throw catlift::Error with a message if `cond` is false.
inline void require(bool cond, const std::string& msg) {
    if (!cond) throw Error(msg);
}

/// Literal-message overload: a passing check constructs no std::string,
/// so hot-path checks (LU solve, Newton) stay allocation-free.
inline void require(bool cond, const char* msg) {
    if (!cond) throw Error(msg);
}

namespace geom {

/// Exact layout coordinate in nanometres.
using Coord = std::int64_t;

/// Nanometres per micron: the fixed-point scale of the layout database.
inline constexpr Coord kNmPerUm = 1000;

/// Convert microns (double) to database units, rounding to nearest.
constexpr Coord from_um(double um) {
    return static_cast<Coord>(um * static_cast<double>(kNmPerUm) +
                              (um >= 0 ? 0.5 : -0.5));
}

/// Convert database units to microns.
constexpr double to_um(Coord c) {
    return static_cast<double>(c) / static_cast<double>(kNmPerUm);
}

/// Square database units expressed in square microns.
constexpr double to_um2(double nm2) {
    return nm2 / (static_cast<double>(kNmPerUm) * static_cast<double>(kNmPerUm));
}

} // namespace geom
} // namespace catlift
