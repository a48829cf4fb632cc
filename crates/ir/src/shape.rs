//! Concrete tensor shapes.

use serde::{Deserialize, Serialize};

/// A concrete tensor shape (row-major, dims in ONNX order, e.g. `NCHW`).
///
/// Rank-0 (scalar) shapes are allowed and have `numel() == 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Shape(pub Vec<u64>);

impl Shape {
    /// Build a shape from a dim slice.
    pub fn new(dims: &[u64]) -> Self {
        Shape(dims.to_vec())
    }

    /// A scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dims as a slice.
    pub fn dims(&self) -> &[u64] {
        &self.0
    }

    /// Total element count (1 for scalars, 0 if any dim is 0).
    pub fn numel(&self) -> u64 {
        self.0.iter().product()
    }

    /// Dimension at `axis`, supporting negative (from-the-end) indices.
    pub fn dim(&self, axis: i64) -> Option<u64> {
        let idx = self.normalize_axis(axis)?;
        self.0.get(idx).copied()
    }

    /// Resolve a possibly-negative axis into a `0..rank` index.
    pub fn normalize_axis(&self, axis: i64) -> Option<usize> {
        let r = self.rank() as i64;
        let a = if axis < 0 { axis + r } else { axis };
        if (0..r).contains(&a) {
            Some(a as usize)
        } else {
            None
        }
    }

    /// NumPy-style broadcast of two shapes; `None` when incompatible.
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        broadcast_dims(&self.0, &other.0, 0).map(Shape)
    }

    /// Whether `self` can broadcast *to* `target` (no dim of target shrinks).
    pub fn broadcastable_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Some(b) => b == *target,
            None => false,
        }
    }
}

/// NumPy-style broadcast of two dim lists, allocated with room for `extra`
/// more dims; `None` when incompatible.
pub(crate) fn broadcast_dims(a: &[u64], b: &[u64], extra: usize) -> Option<Vec<u64>> {
    let r = a.len().max(b.len());
    let mut out = Vec::with_capacity(r + extra);
    for i in 0..r {
        out.push(
            match (dim_from_end(a, r - 1 - i), dim_from_end(b, r - 1 - i)) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => return None,
            },
        );
    }
    Some(out)
}

fn dim_from_end(dims: &[u64], back: usize) -> u64 {
    if back < dims.len() {
        dims[dims.len() - 1 - back]
    } else {
        1
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<u64>> for Shape {
    fn from(v: Vec<u64>) -> Self {
        Shape(v)
    }
}

impl From<&[u64]> for Shape {
    fn from(v: &[u64]) -> Self {
        Shape(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::new(&[5, 0, 2]).numel(), 0);
        assert_eq!(Shape::new(&[2, 3]).rank(), 2);
    }

    #[test]
    fn negative_axis_normalization() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.normalize_axis(-1), Some(2));
        assert_eq!(s.normalize_axis(-3), Some(0));
        assert_eq!(s.normalize_axis(3), None);
        assert_eq!(s.normalize_axis(-4), None);
        assert_eq!(s.dim(-1), Some(4));
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape::new(&[4, 1, 3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(a.broadcast(&b), Some(Shape::new(&[4, 2, 3])));
        // scalar broadcasts with anything
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
        // incompatible
        assert_eq!(Shape::new(&[2, 3]).broadcast(&Shape::new(&[4, 3])), None);
    }

    #[test]
    fn broadcastable_to_is_directional() {
        let small = Shape::new(&[1, 3]);
        let big = Shape::new(&[5, 3]);
        assert!(small.broadcastable_to(&big));
        assert!(!big.broadcastable_to(&small));
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[1, 3, 224, 224]).to_string(), "[1x3x224x224]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
