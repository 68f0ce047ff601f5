//! Lookup tables with multilinear interpolation and clamped extrapolation.

use serde::{Deserialize, Serialize, Value};

/// A sorted, strictly-increasing sample axis.
///
/// # Example
///
/// ```
/// use ser_cells::lut::Axis;
///
/// let axis = Axis::new(vec![1.0, 2.0, 4.0]).unwrap();
/// assert_eq!(axis.locate(3.0), (1, 0.5));
/// assert_eq!(axis.locate(0.0), (0, 0.0));   // clamped low
/// assert_eq!(axis.locate(9.0), (1, 1.0));   // clamped high
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Axis {
    values: Vec<f64>,
}

impl Axis {
    /// Wraps sample points.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message if fewer than 1 point is given, any
    /// point is non-finite, or the points are not strictly increasing.
    pub fn new(values: Vec<f64>) -> Result<Self, LutError> {
        if values.is_empty() {
            return Err(LutError::EmptyAxis);
        }
        for w in values.windows(2) {
            // NaN must also be rejected here, hence partial_cmp.
            if w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater) {
                return Err(LutError::NotIncreasing { at: w[0] });
            }
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LutError::NonFinite);
        }
        Ok(Axis { values })
    }

    /// The sample points.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of sample points.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the axis has a single point (lookups are then constant
    /// along it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false // Axis::new rejects empty sets; kept for clippy convention
    }

    /// Bracket `x`: returns `(i, frac)` such that the interpolated value
    /// is `v[i]·(1−frac) + v[i+1]·frac`. Out-of-range queries clamp to the
    /// edges (frac 0 or 1); a single-point axis always returns `(0, 0)`.
    pub fn locate(&self, x: f64) -> (usize, f64) {
        let v = &self.values;
        let n = v.len();
        if n == 1 || x <= v[0] {
            return (0, 0.0);
        }
        if x >= v[n - 1] {
            return (n - 2, 1.0);
        }
        // Binary search for the bracketing interval.
        let mut lo = 0usize;
        let mut hi = n - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if v[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, (x - v[lo]) / (v[lo + 1] - v[lo]))
    }
}

/// Errors constructing lookup tables.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LutError {
    /// An axis was given no sample points.
    EmptyAxis,
    /// Axis points were not strictly increasing.
    NotIncreasing {
        /// The point after which monotonicity broke.
        at: f64,
    },
    /// A sample point or value was NaN/inf.
    NonFinite,
    /// The value array length does not match the axis sizes.
    ShapeMismatch {
        /// Expected number of values.
        expect: usize,
        /// Provided number of values.
        got: usize,
    },
}

impl std::fmt::Display for LutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LutError::EmptyAxis => write!(f, "axis needs at least one sample point"),
            LutError::NotIncreasing { at } => {
                write!(f, "axis points must be strictly increasing (after {at})")
            }
            LutError::NonFinite => write!(f, "table entries must be finite"),
            LutError::ShapeMismatch { expect, got } => {
                write!(f, "value array has {got} entries, axes imply {expect}")
            }
        }
    }
}

impl std::error::Error for LutError {}

/// A 1-D interpolated table.
///
/// # Example
///
/// ```
/// use ser_cells::lut::{Axis, Lut1};
///
/// let lut = Lut1::new(
///     Axis::new(vec![0.0, 10.0]).unwrap(),
///     vec![0.0, 100.0],
/// ).unwrap();
/// assert_eq!(lut.eval(2.5), 25.0);
/// assert_eq!(lut.eval(-5.0), 0.0); // clamped
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Lut1 {
    axis: Axis,
    values: Vec<f64>,
}

impl Lut1 {
    /// Builds the table.
    ///
    /// # Errors
    ///
    /// [`LutError::ShapeMismatch`] when `values.len() != axis.len()`;
    /// [`LutError::NonFinite`] for NaN/inf values.
    pub fn new(axis: Axis, values: Vec<f64>) -> Result<Self, LutError> {
        if values.len() != axis.len() {
            return Err(LutError::ShapeMismatch {
                expect: axis.len(),
                got: values.len(),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LutError::NonFinite);
        }
        Ok(Lut1 { axis, values })
    }

    /// The sample axis.
    pub fn axis(&self) -> &Axis {
        &self.axis
    }

    /// The stored values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Interpolated lookup (clamped outside the axis range).
    pub fn eval(&self, x: f64) -> f64 {
        let (i, f) = self.axis.locate(x);
        if self.values.len() == 1 {
            return self.values[0];
        }
        self.values[i] * (1.0 - f) + self.values[i + 1] * f
    }
}

/// A 2-D bilinear table, row-major over `(axis0, axis1)`.
///
/// # Example
///
/// ```
/// use ser_cells::lut::{Axis, Lut2};
///
/// let lut = Lut2::new(
///     Axis::new(vec![0.0, 1.0]).unwrap(),
///     Axis::new(vec![0.0, 1.0]).unwrap(),
///     vec![0.0, 1.0, 2.0, 3.0], // f(0,0)=0 f(0,1)=1 f(1,0)=2 f(1,1)=3
/// ).unwrap();
/// assert_eq!(lut.eval(0.5, 0.5), 1.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Lut2 {
    axis0: Axis,
    axis1: Axis,
    values: Vec<f64>,
}

impl Lut2 {
    /// Builds the table (row-major: index = i0·len1 + i1).
    ///
    /// # Errors
    ///
    /// [`LutError::ShapeMismatch`] or [`LutError::NonFinite`] as for
    /// [`Lut1::new`].
    pub fn new(axis0: Axis, axis1: Axis, values: Vec<f64>) -> Result<Self, LutError> {
        let expect = axis0.len() * axis1.len();
        if values.len() != expect {
            return Err(LutError::ShapeMismatch {
                expect,
                got: values.len(),
            });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(LutError::NonFinite);
        }
        Ok(Lut2 {
            axis0,
            axis1,
            values,
        })
    }

    /// Builds the table **without** validating values (shape is still
    /// checked). Escape hatch for fault-injection tests that need to
    /// craft a table holding NaN/inf entries — exactly what [`Lut2::new`]
    /// exists to prevent; never use it on real characterization data.
    pub fn from_raw_unchecked(
        axis0: Axis,
        axis1: Axis,
        values: Vec<f64>,
    ) -> Result<Self, LutError> {
        let expect = axis0.len() * axis1.len();
        if values.len() != expect {
            return Err(LutError::ShapeMismatch {
                expect,
                got: values.len(),
            });
        }
        Ok(Lut2 {
            axis0,
            axis1,
            values,
        })
    }

    /// Whether every stored value is finite (true for any table built by
    /// [`Lut2::new`]; may be false after [`Lut2::from_raw_unchecked`]).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// First axis.
    pub fn axis0(&self) -> &Axis {
        &self.axis0
    }

    /// Second axis.
    pub fn axis1(&self) -> &Axis {
        &self.axis1
    }

    #[inline]
    fn at(&self, i0: usize, i1: usize) -> f64 {
        self.values[i0 * self.axis1.len() + i1]
    }

    /// Bilinear lookup (clamped outside both axes).
    pub fn eval(&self, x0: f64, x1: f64) -> f64 {
        let (i, fi) = self.axis0.locate(x0);
        let (j, fj) = self.axis1.locate(x1);
        let n0 = self.axis0.len();
        let n1 = self.axis1.len();
        let i1 = (i + 1).min(n0 - 1);
        let j1 = (j + 1).min(n1 - 1);
        let v00 = self.at(i, j);
        let v01 = self.at(i, j1);
        let v10 = self.at(i1, j);
        let v11 = self.at(i1, j1);
        let a = v00 * (1.0 - fj) + v01 * fj;
        let b = v10 * (1.0 - fj) + v11 * fj;
        a * (1.0 - fi) + b * fi
    }
}

// Decoding goes through the constructors, so a table read from JSON (a
// library file or a session snapshot) is checked like a built one: a
// malformed axis or a value array of the wrong shape is a decode error,
// not an out-of-bounds panic at the first lookup.

impl Deserialize for Axis {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Axis::new(field(v, "Axis", "values")?).map_err(|e| table_error("Axis", &e))
    }
}

impl Deserialize for Lut1 {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Lut1::new(field(v, "Lut1", "axis")?, field(v, "Lut1", "values")?)
            .map_err(|e| table_error("Lut1", &e))
    }
}

impl Deserialize for Lut2 {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        Lut2::new(
            field(v, "Lut2", "axis0")?,
            field(v, "Lut2", "axis1")?,
            field(v, "Lut2", "values")?,
        )
        .map_err(|e| table_error("Lut2", &e))
    }
}

/// Decodes field `name` of the serialized `container` object.
fn field<T: Deserialize>(v: &Value, container: &str, name: &str) -> Result<T, serde::Error> {
    let obj = v.as_object().ok_or_else(|| {
        serde::Error::custom(format!(
            "expected object for `{container}`, found {}",
            v.kind()
        ))
    })?;
    let x = serde::__find(obj, name).ok_or_else(|| serde::Error::missing_field(container, name))?;
    T::deserialize(x).map_err(|e| e.context(&format!("{container}.{name}")))
}

fn table_error(container: &str, e: &LutError) -> serde::Error {
    serde::Error::custom(format!("invalid `{container}`: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_rejects_unsorted() {
        assert!(matches!(
            Axis::new(vec![1.0, 1.0]),
            Err(LutError::NotIncreasing { .. })
        ));
        assert!(matches!(Axis::new(vec![]), Err(LutError::EmptyAxis)));
    }

    #[test]
    fn locate_midpoints() {
        let a = Axis::new(vec![0.0, 1.0, 3.0]).unwrap();
        assert_eq!(a.locate(0.5), (0, 0.5));
        assert_eq!(a.locate(2.0), (1, 0.5));
    }

    #[test]
    fn lut1_exact_at_points() {
        let lut = Lut1::new(
            Axis::new(vec![1.0, 2.0, 4.0]).unwrap(),
            vec![10.0, 20.0, 40.0],
        )
        .unwrap();
        for (x, y) in [(1.0, 10.0), (2.0, 20.0), (4.0, 40.0)] {
            assert_eq!(lut.eval(x), y);
        }
    }

    #[test]
    fn lut1_is_piecewise_linear() {
        let lut = Lut1::new(Axis::new(vec![0.0, 2.0]).unwrap(), vec![0.0, 8.0]).unwrap();
        assert_eq!(lut.eval(0.5), 2.0);
        assert_eq!(lut.eval(1.5), 6.0);
    }

    #[test]
    fn lut1_single_point_is_constant() {
        let lut = Lut1::new(Axis::new(vec![5.0]).unwrap(), vec![3.0]).unwrap();
        assert_eq!(lut.eval(-10.0), 3.0);
        assert_eq!(lut.eval(99.0), 3.0);
    }

    #[test]
    fn lut1_shape_mismatch() {
        let err = Lut1::new(Axis::new(vec![0.0, 1.0]).unwrap(), vec![1.0]).unwrap_err();
        assert!(matches!(err, LutError::ShapeMismatch { expect: 2, got: 1 }));
    }

    #[test]
    fn lut2_bilinear_exactness() {
        // f(x, y) = 2x + 3y is reproduced exactly by bilinear interpolation.
        let ax = Axis::new(vec![0.0, 1.0, 2.0]).unwrap();
        let ay = Axis::new(vec![0.0, 2.0]).unwrap();
        let mut vals = Vec::new();
        for &x in ax.values() {
            for &y in ay.values() {
                vals.push(2.0 * x + 3.0 * y);
            }
        }
        let lut = Lut2::new(ax, ay, vals).unwrap();
        for (x, y) in [(0.5, 1.0), (1.7, 0.3), (2.0, 2.0)] {
            assert!((lut.eval(x, y) - (2.0 * x + 3.0 * y)).abs() < 1e-12);
        }
    }

    #[test]
    fn lut2_clamps() {
        let ax = Axis::new(vec![0.0, 1.0]).unwrap();
        let ay = Axis::new(vec![0.0, 1.0]).unwrap();
        let lut = Lut2::new(ax, ay, vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(lut.eval(-1.0, -1.0), 0.0);
        assert_eq!(lut.eval(9.0, 9.0), 3.0);
    }

    #[test]
    fn lut2_degenerate_axes() {
        let lut = Lut2::new(
            Axis::new(vec![1.0]).unwrap(),
            Axis::new(vec![0.0, 1.0]).unwrap(),
            vec![5.0, 7.0],
        )
        .unwrap();
        assert_eq!(lut.eval(0.0, 0.5), 6.0);
    }

    #[test]
    fn decoding_checks_like_the_constructors() {
        let lut = Lut2::new(
            Axis::new(vec![0.0, 1.0]).unwrap(),
            Axis::new(vec![0.0, 1.0]).unwrap(),
            vec![0.0, 1.0, 2.0, 3.0],
        )
        .unwrap();
        let json = serde_json::to_string(&lut).unwrap();
        assert_eq!(serde_json::from_str::<Lut2>(&json).unwrap(), lut);
        let empty_axis = json.replacen("[0.0,1.0]", "[]", 1);
        assert!(serde_json::from_str::<Lut2>(&empty_axis).is_err());
        let short = json.replace(",3.0]", "]");
        assert!(serde_json::from_str::<Lut2>(&short).is_err());
        assert!(serde_json::from_str::<Axis>(r#"{"values":[2.0,1.0]}"#).is_err());
        assert!(serde_json::from_str::<Lut1>(r#"{"axis":{"values":[0.0]},"values":[]}"#).is_err());
    }

    #[test]
    fn errors_display() {
        assert!(LutError::EmptyAxis.to_string().contains("at least one"));
    }
}
