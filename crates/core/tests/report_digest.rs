//! Golden report bytes: the FNV-1a/64 digest and length of every zoo
//! model's predicted-mode report at batch 1 on `a100`, under each backend
//! flavour. The TRT-like column covers fused-name and Myelin opaque-io
//! mapping, the ORT-like one reorder layers and tensor aliases, and the
//! OV-like one the primary-op heuristic. A refactor of compile or map that
//! keeps these digests keeps every report byte.

use proof_core::{profile_model, MetricMode};
use proof_hw::PlatformId;
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};

const FLAVORS: [BackendFlavor; 3] = [
    BackendFlavor::TrtLike,
    BackendFlavor::OrtLike,
    BackendFlavor::OvLike,
];

/// `(model slug, [(digest, length); TRT, ORT, OV])`, in `ModelId::ALL` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [(u64, usize); 3]); 20] = [
    ("distilbert-base", [(0xd09f4d29e8f83553, 31775), (0xa2199298bab91b7c, 39856), (0xf7423c5053bf6cb0, 71291)]),
    ("sd-unet", [(0xaf03b46e8cfface7, 210929), (0x57389f54334fa797, 277741), (0x75c40022d53eed98, 282009)]),
    ("efficientnet-b0", [(0xbc873b02ec40add4, 36533), (0xf339f07033e7aaa9, 38881), (0xb74616645f46eac5, 37317)]),
    ("efficientnet-b4", [(0x426b439cdaeeee1f, 71756), (0xaf4f1b03e2916581, 76365), (0x18416ce5745b0f51, 73291)]),
    ("efficientnetv2-t", [(0xc19febbd3c9d2bc3, 72405), (0xcdf82267b3564862, 75921), (0xbfb06e50827a5918, 72932)]),
    ("efficientnetv2-s", [(0x6f85c1ce99e67c1b, 74647), (0x7a2da6fb995da55b, 78312), (0x6120b90bd554adb3, 75228)]),
    ("mlp-mixer-b16", [(0x221b077394b8f136, 47864), (0xdbf09123dd14188a, 46751), (0x8c150e0b65e7efbc, 119731)]),
    ("mobilenetv2-0.5", [(0x25ee3ff87e180bea, 16597), (0xcfc97e125015479d, 16287), (0x49eaf7198db4755b, 15733)]),
    ("mobilenetv2-1.0", [(0xf039119fa876b242, 16629), (0x7381d3a990aa9841, 16319), (0xbcd647b491d2821d, 15765)]),
    ("resnet-34", [(0xdc21f69338e6c8e2, 13059), (0x215981dcd31e2eda, 12509), (0xfec7f6a88d71f70c, 12102)]),
    ("resnet-50", [(0x44c7dd3f397aabb1, 18448), (0xa993b03e45dce1e5, 17716), (0x92913ba72efbf76f, 17139)]),
    ("shufflenetv2-x0.5", [(0x620228eeeb2bd6e8, 30205), (0x6e493fa6ee5e40cb, 30617), (0xc078559d77f2b98f, 29435)]),
    ("shufflenetv2-x1.0", [(0xeb22c97d7030b936, 30302), (0x7dbe592a6e55a65d, 30714), (0xea12f0e2a22993e5, 29532)]),
    ("shufflenetv2-x1.0-mod", [(0x69b91dde3dd40869, 19854), (0xa0c4a162279ce40c, 19577), (0xf61187dcf2c64fc3, 18889)]),
    ("swin-tiny", [(0x23a9db6347e24971, 98506), (0xbc2ee8063fd3a65f, 116194), (0xbed2eb9a7c61ea3f, 181560)]),
    ("swin-small", [(0xf2128f886633a86d, 187632), (0x885f45f60e8ba455, 222815), (0x652172449c213d45, 344652)]),
    ("swin-base", [(0x878b84e7ba17cb45, 187757), (0x4098d98145a5e9ab, 222938), (0x85550365aebe3722, 344984)]),
    ("vit-tiny", [(0xfcc00eaf7411dc00, 51015), (0xd6d087ddf7ff9cc4, 67349), (0x1eedcbb43c8b9bdf, 124244)]),
    ("vit-small", [(0xd85be242195adf44, 51092), (0xe9252ef661f4c6df, 67428), (0x4e9ad6eda1a8fd53, 124419)]),
    ("vit-base", [(0x68fe791a5161a969, 51227), (0x6de7102b2aebfb8a, 67579), (0x4f7f10f326157fc5, 124723)]),
];

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn every_zoo_report_keeps_its_golden_bytes() {
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let actual: Vec<(&str, Vec<(u64, usize)>)> = ModelId::ALL
        .iter()
        .map(|&model| {
            let g = model.build(1);
            let cells = FLAVORS
                .iter()
                .map(|&flavor| {
                    let json = profile_model(&g, &platform, flavor, &cfg, MetricMode::Predicted)
                        .and_then(|r| r.try_to_json())
                        .unwrap_or_else(|e| panic!("{} {flavor:?}: {e}", model.slug()));
                    (fnv1a(&json), json.len())
                })
                .collect();
            (model.slug(), cells)
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(slug, c)| {
            format!(
                "    (\"{slug}\", [(0x{:016x}, {}), (0x{:016x}, {}), (0x{:016x}, {})]),\n",
                c[0].0, c[0].1, c[1].0, c[1].1, c[2].0, c[2].1
            )
        })
        .collect();
    let expected: Vec<(&str, Vec<(u64, usize)>)> =
        GOLDEN.iter().map(|(s, c)| (*s, c.to_vec())).collect();
    assert!(
        actual == expected,
        "report bytes changed; the current table is:\n{table}"
    );
}
