//! Property tests for shape inference and core IR types.

use proof_ir::{attrs, infer_shapes, Attributes, DType, OpKind, Shape, ShapeError};
use proptest::prelude::*;

/// [`infer_shapes`] over owned `(shape, dtype)` pairs.
fn infer(
    op: OpKind,
    attrs: &Attributes,
    inputs: &[(Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    let inputs: Vec<(&Shape, DType)> = inputs.iter().map(|(s, d)| (s, *d)).collect();
    infer_shapes(op, attrs, &inputs)
}

fn dims_strategy(max_rank: usize) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..=16, 1..=max_rank)
}

proptest! {
    /// Transposing by a permutation then by its inverse restores the shape.
    #[test]
    fn transpose_inverse_roundtrips(dims in dims_strategy(5), seed in any::<u64>()) {
        let rank = dims.len();
        // derive a permutation from the seed
        let mut perm: Vec<i64> = (0..rank as i64).collect();
        let mut s = seed;
        for i in (1..rank).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            perm.swap(i, (s as usize) % (i + 1));
        }
        let mut inverse = vec![0i64; rank];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p as usize] = i as i64;
        }
        let input = (Shape::new(&dims), DType::F32);
        let t1 = infer(OpKind::Transpose, &attrs! {"perm" => ints perm}, std::slice::from_ref(&input)).unwrap();
        let t2 = infer(OpKind::Transpose, &attrs! {"perm" => ints inverse}, &[t1[0].clone()]).unwrap();
        prop_assert_eq!(&t2[0].0, &input.0);
    }

    /// Reshape with an explicit spec and with -1 inference agree, and numel
    /// is always preserved.
    #[test]
    fn reshape_preserves_numel(dims in dims_strategy(4), split_at in 0usize..4) {
        let shape = Shape::new(&dims);
        let numel = shape.numel();
        let k = split_at % dims.len();
        let head: u64 = dims[..k].iter().product();
        let tail: u64 = dims[k..].iter().product();
        let explicit = infer(
            OpKind::Reshape,
            &attrs! {"shape" => ints[head as i64, tail as i64]},
            &[(shape.clone(), DType::F32)],
        ).unwrap();
        prop_assert_eq!(explicit[0].0.numel(), numel);
        let inferred = infer(
            OpKind::Reshape,
            &attrs! {"shape" => ints[head as i64, -1]},
            &[(shape, DType::F32)],
        ).unwrap();
        prop_assert_eq!(&explicit[0].0, &inferred[0].0);
    }

    /// Broadcasting is commutative, and broadcasting with itself is identity.
    #[test]
    fn broadcast_commutes(a in dims_strategy(4), b in dims_strategy(4)) {
        let (sa, sb) = (Shape::new(&a), Shape::new(&b));
        prop_assert_eq!(sa.broadcast(&sb), sb.broadcast(&sa));
        prop_assert_eq!(sa.broadcast(&sa), Some(sa.clone()));
        if let Some(c) = sa.broadcast(&sb) {
            // the result dominates both operands
            prop_assert!(sa.broadcastable_to(&c));
            prop_assert!(sb.broadcastable_to(&c));
        }
    }

    /// Elementwise binary inference equals Shape::broadcast.
    #[test]
    fn add_matches_broadcast(a in dims_strategy(4), b in dims_strategy(4)) {
        let (sa, sb) = (Shape::new(&a), Shape::new(&b));
        let inferred = infer(
            OpKind::Add,
            &Attributes::new(),
            &[(sa.clone(), DType::F32), (sb.clone(), DType::F32)],
        );
        match sa.broadcast(&sb) {
            Some(c) => prop_assert_eq!(inferred.unwrap()[0].0.clone(), c),
            None => prop_assert!(inferred.is_err()),
        }
    }

    /// Conv output spatial size matches the closed-form formula for any
    /// valid (kernel, stride, pad) combination.
    #[test]
    fn conv_output_formula(
        h in 4u64..64,
        cin in 1u64..8,
        cout in 1u64..8,
        k in 1u64..=5,
        s in 1u64..=3,
        p in 0u64..=2,
    ) {
        prop_assume!(h + 2 * p >= k);
        let out = infer(
            OpKind::Conv,
            &attrs! {
                "kernel_shape" => ints[k as i64, k as i64],
                "strides" => ints[s as i64, s as i64],
                "pads" => ints[p as i64, p as i64, p as i64, p as i64]
            },
            &[
                (Shape::new(&[1, cin, h, h]), DType::F32),
                (Shape::new(&[cout, cin, k, k]), DType::F32),
            ],
        ).unwrap();
        let expect = (h + 2 * p - k) / s + 1;
        prop_assert_eq!(out[0].0.dims(), &[1, cout, expect, expect]);
    }

    /// Split then Concat along the same axis restores the shape.
    #[test]
    fn split_concat_roundtrip(c in 2u64..32, rest in dims_strategy(2)) {
        prop_assume!(c % 2 == 0);
        let mut dims = vec![1, c];
        dims.extend(&rest);
        let shape = Shape::new(&dims);
        let parts = infer(
            OpKind::Split,
            &attrs! {"axis" => int 1, "num_outputs" => int 2},
            &[(shape.clone(), DType::F32)],
        ).unwrap();
        let cat = infer(
            OpKind::Concat,
            &attrs! {"axis" => int 1},
            &parts,
        ).unwrap();
        prop_assert_eq!(&cat[0].0, &shape);
    }

    /// Pooling output never exceeds its input spatially.
    #[test]
    fn pooling_never_grows(h in 4u64..64, k in 1u64..=4, s in 1u64..=4) {
        prop_assume!(h >= k);
        let out = infer(
            OpKind::MaxPool,
            &attrs! {
                "kernel_shape" => ints[k as i64, k as i64],
                "strides" => ints[s as i64, s as i64]
            },
            &[(Shape::new(&[1, 3, h, h]), DType::F32)],
        ).unwrap();
        prop_assert!(out[0].0.dims()[2] <= h);
        prop_assert!(out[0].0.dims()[2] >= 1);
    }
}
