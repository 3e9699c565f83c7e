//! Typed electrical units.
//!
//! Each unit is a transparent newtype over `f64` implementing the arithmetic
//! that is physically meaningful for it, plus a few cross-unit relations
//! (`V = I·R`, `τ = R·C`, …). Using distinct types prevents the classic EDA
//! bug of feeding a per-square sheet resistance where a via resistance was
//! expected.
//!
//! # Example
//!
//! ```
//! use pdn_core::units::{Amps, Ohms, Volts};
//!
//! let droop: Volts = Amps(0.5) * Ohms(0.02);
//! assert!((droop.0 - 0.01).abs() < 1e-12);
//! assert_eq!(droop.to_millivolts(), 10.0);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$meta:meta])* $name:ident, $sym:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// Zero value of this unit.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw `f64` value.
            pub fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $sym)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two same-unit quantities is dimensionless.
            type Output = f64;
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl From<f64> for $name {
            fn from(v: f64) -> $name {
                $name(v)
            }
        }
    };
}

unit!(
    /// Electric potential in volts.
    Volts,
    "V"
);
unit!(
    /// Electric current in amperes.
    Amps,
    "A"
);
unit!(
    /// Resistance in ohms.
    Ohms,
    "Ω"
);
unit!(
    /// Capacitance in farads.
    Farads,
    "F"
);
unit!(
    /// Inductance in henries.
    Henries,
    "H"
);
unit!(
    /// Time in seconds.
    Seconds,
    "s"
);

impl Volts {
    /// Converts to millivolts, the unit used in the paper's tables.
    pub fn to_millivolts(self) -> f64 {
        self.0 * 1e3
    }

    /// Creates a voltage from a value in millivolts.
    pub fn from_millivolts(mv: f64) -> Volts {
        Volts(mv * 1e-3)
    }
}

impl Seconds {
    /// Creates a time from picoseconds (the paper uses `Δt = 1 ps`).
    pub fn from_picos(ps: f64) -> Seconds {
        Seconds(ps * 1e-12)
    }

    /// Creates a time from nanoseconds.
    pub fn from_nanos(ns: f64) -> Seconds {
        Seconds(ns * 1e-9)
    }
}

/// Ohm's law: `V = I · R`.
impl Mul<Ohms> for Amps {
    type Output = Volts;
    fn mul(self, rhs: Ohms) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

/// Ohm's law: `V = R · I`.
impl Mul<Amps> for Ohms {
    type Output = Volts;
    fn mul(self, rhs: Amps) -> Volts {
        Volts(self.0 * rhs.0)
    }
}

/// `I = V / R`.
impl Div<Ohms> for Volts {
    type Output = Amps;
    fn div(self, rhs: Ohms) -> Amps {
        Amps(self.0 / rhs.0)
    }
}

/// `R = V / I`.
impl Div<Amps> for Volts {
    type Output = Ohms;
    fn div(self, rhs: Amps) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

/// RC time constant: `τ = R · C`.
impl Mul<Farads> for Ohms {
    type Output = Seconds;
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds(self.0 * rhs.0)
    }
}

/// L/R time constant: `τ = L / R`.
impl Div<Ohms> for Henries {
    type Output = Seconds;
    fn div(self, rhs: Ohms) -> Seconds {
        Seconds(self.0 / rhs.0)
    }
}

/// Charge-per-time view of a capacitor under backward Euler: `C / Δt` has
/// the dimension of a conductance; its reciprocal is an equivalent resistance.
impl Div<Seconds> for Henries {
    type Output = Ohms;
    fn div(self, rhs: Seconds) -> Ohms {
        Ohms(self.0 / rhs.0)
    }
}

/// Conductance in siemens, the reciprocal of [`Ohms`].
///
/// Kept separate from `Ohms` because MNA stamping sums conductances, never
/// resistances.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Siemens(pub f64);

impl Siemens {
    /// Zero conductance.
    pub const ZERO: Siemens = Siemens(0.0);

    /// Returns the raw value.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Ohms {
    /// Reciprocal conversion to conductance.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the resistance is zero.
    pub fn to_siemens(self) -> Siemens {
        debug_assert!(self.0 != 0.0, "zero resistance has no conductance");
        Siemens(1.0 / self.0)
    }
}

impl Siemens {
    /// Reciprocal conversion to resistance.
    pub fn to_ohms(self) -> Ohms {
        Ohms(1.0 / self.0)
    }
}

impl Add for Siemens {
    type Output = Siemens;
    fn add(self, rhs: Siemens) -> Siemens {
        Siemens(self.0 + rhs.0)
    }
}

impl AddAssign for Siemens {
    fn add_assign(&mut self, rhs: Siemens) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Siemens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}S", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ohms_law_round_trip() {
        let v = Amps(2.0) * Ohms(3.0);
        assert_eq!(v, Volts(6.0));
        assert_eq!(v / Ohms(3.0), Amps(2.0));
        assert_eq!(v / Amps(2.0), Ohms(3.0));
    }

    #[test]
    fn millivolt_conversion() {
        assert_eq!(Volts(0.1).to_millivolts(), 100.0);
        assert_eq!(Volts::from_millivolts(100.0), Volts(0.1));
    }

    #[test]
    fn time_constructors() {
        assert!((Seconds::from_picos(1.0).0 - 1e-12).abs() < 1e-24);
        assert!((Seconds::from_nanos(1.0).0 - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn siemens_round_trip() {
        let g = Ohms(4.0).to_siemens();
        assert_eq!(g, Siemens(0.25));
        assert_eq!(g.to_ohms(), Ohms(4.0));
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Volts(1.0) + Volts(2.0) - Volts(0.5);
        assert_eq!(a, Volts(2.5));
        assert_eq!(a * 2.0, Volts(5.0));
        assert_eq!(2.0 * a, Volts(5.0));
        assert_eq!(a / 2.5, Volts(1.0));
        assert_eq!(Volts(3.0) / Volts(1.5), 2.0);
        assert_eq!(Volts(-2.0).abs(), Volts(2.0));
        assert_eq!(Volts(1.0).max(Volts(2.0)), Volts(2.0));
        assert_eq!(Volts(1.0).min(Volts(2.0)), Volts(1.0));
        assert_eq!(-Volts(1.0), Volts(-1.0));
    }

    #[test]
    fn sum_iterator() {
        let total: Amps = vec![Amps(1.0), Amps(2.0), Amps(3.0)].into_iter().sum();
        assert_eq!(total, Amps(6.0));
    }

    #[test]
    fn time_constants() {
        assert_eq!(Ohms(2.0) * Farads(3.0), Seconds(6.0));
        assert_eq!(Henries(6.0) / Ohms(3.0), Seconds(2.0));
        assert_eq!(Henries(6.0) / Seconds(2.0), Ohms(3.0));
    }

    #[test]
    fn display_includes_symbol() {
        assert_eq!(Volts(1.5).to_string(), "1.5V");
        assert_eq!(Siemens(2.0).to_string(), "2S");
    }
}
