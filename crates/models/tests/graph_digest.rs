//! Golden graph bytes: the FNV-1a/64 digest and length of every zoo
//! model's JSON (`Graph::to_json`) at batch 1 and 8. The JSON carries every
//! node and tensor name (with any `_N` suffix the builder gave it), shape,
//! dtype, kind and attribute, so a change to `GraphBuilder` or shape
//! inference that keeps these digests keeps every graph byte.

use proof_models::ModelId;

const BATCHES: [u64; 2] = [1, 8];

/// `(model slug, [(digest, length); batch 1, batch 8])`, in `ModelId::ALL` order.
#[rustfmt::skip]
const GOLDEN: [(&str, [(u64, usize); 2]); 20] = [
    ("distilbert-base", [(0x7256cfae8a30569d, 145278), (0xf9bb31ff1dcead4d, 145278)]),
    ("sd-unet", [(0xdc8c9fe135f63516, 705452), (0xd56f2f42c0ecef53, 705452)]),
    ("efficientnet-b0", [(0xfede5f6c1462690e, 137666), (0x4ebee3f0e9cebf12, 137666)]),
    ("efficientnet-b4", [(0xc0a1e8ac8f4cc971, 273383), (0x64eb0ba52fda0570, 273383)]),
    ("efficientnetv2-t", [(0xf3ac693a2b2952c3, 281062), (0xa0d622e788803e5d, 281062)]),
    ("efficientnetv2-s", [(0x1c59858f25c8fd12, 289654), (0xa512a88c5a17d3bf, 289654)]),
    ("mlp-mixer-b16", [(0x244c4542f85b701f, 216174), (0xb2968df164c3d5f7, 216174)]),
    ("mobilenetv2-0.5", [(0x6256de0c0c4c8c41, 73158), (0x2aa04f4f45c34fa8, 73158)]),
    ("mobilenetv2-1.0", [(0x248ae48560d19077, 73226), (0xbac7d44c00ea38ca, 73226)]),
    ("resnet-34", [(0x3cde4dc8326e0618, 55508), (0x7d9445920fd1d266, 55508)]),
    ("resnet-50", [(0x32d9b91868c09e80, 78489), (0xb62a41c317941785, 78489)]),
    ("shufflenetv2-x0.5", [(0x20fc8ad659b1c806, 109736), (0xfeabbfc17beb3068, 109736)]),
    ("shufflenetv2-x1.0", [(0xaff35acd2e9d5d51, 110014), (0x98735f9074f6631f, 110014)]),
    ("shufflenetv2-x1.0-mod", [(0x6ea6b454cf600453, 81519), (0xc4d843866a4d2d3c, 81519)]),
    ("swin-tiny", [(0x88e5e4e8fd11b818, 403014), (0xa7fa6eefeabcac8a, 403284)]),
    ("swin-small", [(0x6680f15b2f83ed46, 772356), (0xe6ffc701a4346086, 772950)]),
    ("swin-base", [(0x2119c4dabbdd42da, 772668), (0x7a3f0ced777c3fdc, 773262)]),
    ("vit-tiny", [(0x9d26ad3f4f38318e, 266688), (0xc44eba3784325de0, 266688)]),
    ("vit-small", [(0x927b1a887a7f0cb6, 266809), (0xa2d8744c891e7448, 266809)]),
    ("vit-base", [(0xde1138e349b89b7e, 266976), (0x1d42e94777b2b9f0, 266976)]),
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
fn every_zoo_graph_keeps_its_golden_bytes() {
    let actual: Vec<(&str, Vec<(u64, usize)>)> = ModelId::ALL
        .iter()
        .map(|&model| {
            let cells = BATCHES
                .iter()
                .map(|&b| {
                    let json = model.build(b).to_json();
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
                "    (\"{slug}\", [(0x{:016x}, {}), (0x{:016x}, {})]),\n",
                c[0].0, c[0].1, c[1].0, c[1].1
            )
        })
        .collect();
    let expected: Vec<(&str, Vec<(u64, usize)>)> =
        GOLDEN.iter().map(|(s, c)| (*s, c.to_vec())).collect();
    assert!(
        actual == expected,
        "graph bytes changed; the current table is:\n{table}"
    );
}
