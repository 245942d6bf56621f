//! Frozen synthesis outputs: the `content_hash` and AND count each of the
//! eleven transforms produces on a fixed set of inputs — small benchmark
//! circuits, every state of a few short seeded trajectories, and seeded
//! random AIGs.
//!
//! Every cache tier, persisted store and frozen optimiser trajectory in the
//! workspace assumes synthesis is a pure function of its input bytes, so
//! any change to a transform's output is a behaviour change and must show
//! up here. On a mismatch the test prints the table the current code
//! produces, in the same syntax as [`FROZEN`], so an intended change can be
//! re-frozen by pasting it.

use boils_aig::{random_aig, splitmix64, Aig};
use boils_circuits::{Benchmark, CircuitSpec};
use boils_synth::Transform;

/// Benchmark circuits at small widths.
const CIRCUITS: [(Benchmark, usize); 10] = [
    (Benchmark::Adder, 8),
    (Benchmark::BarrelShifter, 8),
    (Benchmark::Divisor, 4),
    (Benchmark::Hypotenuse, 4),
    (Benchmark::Log2, 4),
    (Benchmark::Max, 4),
    (Benchmark::Multiplier, 4),
    (Benchmark::Sine, 4),
    (Benchmark::SquareRoot, 8),
    (Benchmark::Square, 4),
];

/// Trajectory seeds and start circuits; the seeds are picked so the four
/// trajectories apply every transform at least once.
const TRAJECTORIES: [(u64, Benchmark, usize); 4] = [
    (3, Benchmark::Adder, 8),
    (6, Benchmark::Multiplier, 4),
    (12, Benchmark::SquareRoot, 8),
    (13, Benchmark::Log2, 4),
];
const TRAJECTORY_LEN: usize = 5;

/// `random_aig` parameters: seed, inputs, gates, outputs.
const RANDOM: [(u64, usize, usize, usize); 5] = [
    (11, 6, 100, 6),
    (12, 8, 200, 8),
    (13, 8, 300, 10),
    (14, 10, 250, 10),
    (15, 12, 400, 12),
];

/// Every input of the table, labelled.
fn inputs() -> Vec<(String, Aig)> {
    let mut out = Vec::new();
    for (b, bits) in CIRCUITS {
        out.push((
            format!("{}_{bits}", b.name()),
            CircuitSpec::new(b).bits(bits).build(),
        ));
    }
    for (seed, b, bits) in TRAJECTORIES {
        let mut cur = CircuitSpec::new(b).bits(bits).build();
        for step in 0..TRAJECTORY_LEN {
            let t = Transform::from_index((splitmix64(seed * 1000 + step as u64) % 11) as usize);
            cur = t.apply(&cur);
            out.push((
                format!("traj{seed}_{}_{bits}@{step}", b.name()),
                cur.clone(),
            ));
        }
    }
    for (seed, pis, gates, pos) in RANDOM {
        out.push((format!("random{seed}"), random_aig(seed, pis, gates, pos)));
    }
    out
}

type Row = (&'static str, [(u64, usize); 11]);

#[rustfmt::skip]
const FROZEN: &[Row] = &[
    ("adder_8", [(0x493b0f6bc1e8d3c8, 73), (0x493b0f6bc1e8d3c8, 73), (0xfaa4f9eb0e1f6212, 72), (0xfaa4f9eb0e1f6212, 72), (0x0a68abd02b8906b4, 61), (0x493b0f6bc1e8d3c8, 73), (0x493b0f6bc1e8d3c8, 73), (0x493b0f6bc1e8d3c8, 73), (0xc01855f21cd385ed, 87), (0x2c99f7320f5831c4, 104), (0xcd97b2feff5a3f0d, 72)]),
    ("bar_8", [(0xa2af28f6488e013e, 72), (0xe1294bd83fb62b0c, 72), (0xa2af28f6488e013e, 72), (0xe1294bd83fb62b0c, 72), (0xa2af28f6488e013e, 72), (0xa2af28f6488e013e, 72), (0xa2af28f6488e013e, 72), (0xa2af28f6488e013e, 72), (0xc8c6df63f1cdd04f, 72), (0xb95210a761523253, 72), (0xb95210a761523253, 72)]),
    ("div_4", [(0xffebabb71a8c1e5b, 126), (0xfcb5df002d1b5695, 140), (0xd71de285fe7f2ff0, 139), (0x23cadb6b915e9240, 141), (0xcbd5f033b9b9d1b4, 125), (0xdf73fb41225513ab, 136), (0xe7615b164b492e9d, 160), (0x7244e37671f92792, 90), (0xd16ec43f6061781d, 200), (0x82b665644c34278b, 187), (0x90f62e7274f41b5e, 134)]),
    ("hyp_4", [(0x14cfce3e0460aff8, 327), (0x8f8e41f6f5557374, 351), (0xdde7c1a744390dda, 356), (0x5c38ceb23f58d882, 354), (0xbd24dd7e7afbe4db, 310), (0x57dd4a2a9ded2ada, 363), (0x93d24145aac51ee8, 386), (0xac18c037c68f8ca3, 267), (0x9ddd270971e9e6c9, 267), (0x936934e2cbf454d5, 240), (0x4527dab81bc839b5, 187)]),
    ("log2_4", [(0xb1f5915d06d9218a, 174), (0x7b0736822a5dddd6, 196), (0x6f34a5233ffa226d, 181), (0x0e4bd9faf21160ea, 180), (0x1a7b8576eed640a9, 166), (0xd6c192c6c9f1d79d, 171), (0xfc28e37891726693, 201), (0x0cd01225c342a71a, 12), (0xdfe78b81ea3c793f, 12), (0x8ec0b87939c2db50, 15), (0x4a42fd9c52bd9546, 12)]),
    ("max_4", [(0x2800c4fe7c101cf9, 84), (0x83b2f6d1ab290216, 89), (0x7d50fad807bc912c, 87), (0x7d50fad807bc912c, 87), (0x771afd8fc055169e, 85), (0x7689fc6a91d2bfc5, 87), (0x6e1a9ca7b1dee22a, 93), (0xbc9e14367fb34990, 84), (0xe35ca3b938e794c8, 90), (0xbceb5a165140b069, 105), (0x4d5fa178ae29a081, 96)]),
    ("multiplier_4", [(0x7327f7b1b3ddd213, 108), (0x7327f7b1b3ddd213, 108), (0x7327f7b1b3ddd213, 108), (0x64b9f28364919c40, 108), (0x01684a8fe168a715, 96), (0x0623a2af1a0680bd, 102), (0xe6f25444abedeadb, 108), (0x2767b23f70f65e6d, 99), (0x7327f7b1b3ddd213, 108), (0x7327f7b1b3ddd213, 108), (0xfc1ad24ba0bdf68e, 160)]),
    ("sin_4", [(0xa5a684de24e5dc76, 104), (0x76fc954041ab0cf3, 131), (0x8ea7678827acd7d8, 133), (0xd34c84c786f411ac, 128), (0xcf5f032deb0ef061, 106), (0x0a7207eeda43d2c9, 111), (0x84d6e58fbed8fd32, 157), (0x94893ffdbbda9178, 10), (0xecbf4c937a243434, 8), (0xac20d6d0e79a7339, 9), (0x16e662cec05a1495, 7)]),
    ("sqrt_8", [(0x630d4dc8821f51c5, 91), (0xf7360e43fdc7cd57, 96), (0xed5918b628ca901b, 87), (0x0011e4a666863f90, 92), (0xb7c44fc2cf70c718, 83), (0xf879c05f4033f1b2, 85), (0x318f63d5c2c33ae8, 129), (0xaa6eeb9cd2e8f318, 70), (0x1b680d0f55dc3688, 90), (0x86b54ada6dd41756, 82), (0xb8bd48212480c3cb, 65)]),
    ("square_4", [(0xcdb4eb0419f4fdcb, 83), (0xcdb4eb0419f4fdcb, 83), (0x87e75d0dc9b5dea9, 82), (0x36e1dc7285675b36, 79), (0xff005ee8d99d0097, 70), (0x99713063b8465f0f, 80), (0xa1d672332ffecc90, 95), (0x3b09f73da4bb0bba, 62), (0x2c589d93ec22091a, 25), (0x28a187cd4b91c16c, 22), (0xe5cad919f2c51b01, 20)]),
    ("traj3_adder_8@0", [(0xf9ed719cba835f47, 84), (0x91c1dc45d589b11a, 84), (0xff6765010cce49a5, 78), (0xff6765010cce49a5, 78), (0xc01855f21cd385ed, 87), (0xc01855f21cd385ed, 87), (0x3224c3b3aa5ffa13, 87), (0xc01855f21cd385ed, 87), (0x737452fb77a16126, 114), (0xc21276957941aea4, 127), (0xf80b4f494b825082, 97)]),
    ("traj3_adder_8@1", [(0x9bb78d0570246f03, 87), (0x6b450759fada37af, 92), (0xe90703e4626559ec, 91), (0x682fb197a0e03854, 91), (0xbeb8e6f3a34afd46, 91), (0x5b0b9f74dfe6f78f, 94), (0xb4c3083c61fe2d8c, 97), (0xf1e3ff554c854a57, 91), (0x71b974b8702b8298, 124), (0x59c66f48efd94d9d, 137), (0xfaac6e1f92b71f76, 91)]),
    ("traj3_adder_8@2", [(0xfe14e844d26d0ce2, 81), (0xe52f6392b1075194, 88), (0xe90703e4626559ec, 91), (0x682fb197a0e03854, 91), (0x248500606e1f6275, 83), (0xcc6a8150b1f7c4cf, 88), (0xb9ba107baa598c28, 90), (0xd0c28df4565fce03, 88), (0x71b974b8702b8298, 124), (0x5cd140fe18befe08, 121), (0xfaac6e1f92b71f76, 91)]),
    ("traj3_adder_8@3", [(0x5984d120df819624, 79), (0x8ea6ba389660b25c, 81), (0xfe14e844d26d0ce2, 81), (0x834e9851cf9cb13b, 81), (0x5baf55291e8c80e7, 79), (0x64bfb5927b82a9ec, 80), (0x38b92eac1349ee48, 81), (0xb79d42290eb144f2, 80), (0xfe14e844d26d0ce2, 81), (0xb9d7ea121516723b, 121), (0x5322fc4a310ce060, 90)]),
    ("traj3_adder_8@4", [(0x8ac2b838ee2e647a, 78), (0x56a00b9da7bceb04, 80), (0x64bfb5927b82a9ec, 80), (0x4dbc029b6cc70ecb, 80), (0xbf04ab65e1e3ad8c, 77), (0x64bfb5927b82a9ec, 80), (0x2350b9462cf4a577, 80), (0x64bfb5927b82a9ec, 80), (0x930fb20a6491d6e0, 118), (0x4907c49122b5a06c, 115), (0x30019b5699c616b2, 93)]),
    ("traj6_multiplier_4@0", [(0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x1df823dde329eb5e, 90), (0xd82677cf6c8cd67b, 96), (0x01684a8fe168a715, 96), (0xa228541fb4580862, 92), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96)]),
    ("traj6_multiplier_4@1", [(0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x1df823dde329eb5e, 90), (0xd82677cf6c8cd67b, 96), (0x01684a8fe168a715, 96), (0xa228541fb4580862, 92), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96), (0x01684a8fe168a715, 96)]),
    ("traj6_multiplier_4@2", [(0x64bdc4f0ea054f06, 92), (0x41b5ff3df4449545, 95), (0xd82677cf6c8cd67b, 96), (0xd82677cf6c8cd67b, 96), (0x20b1b8b53ba50a25, 90), (0x218ada51e73903d8, 93), (0xd82677cf6c8cd67b, 96), (0xf62f49e790047619, 92), (0xd82677cf6c8cd67b, 96), (0xd82677cf6c8cd67b, 96), (0x559c7f9ae33ba02a, 142)]),
    ("traj6_multiplier_4@3", [(0x64bdc4f0ea054f06, 92), (0x41b5ff3df4449545, 95), (0xd82677cf6c8cd67b, 96), (0xd82677cf6c8cd67b, 96), (0x20b1b8b53ba50a25, 90), (0x218ada51e73903d8, 93), (0xd82677cf6c8cd67b, 96), (0xf62f49e790047619, 92), (0xd82677cf6c8cd67b, 96), (0xd82677cf6c8cd67b, 96), (0x559c7f9ae33ba02a, 142)]),
    ("traj6_multiplier_4@4", [(0xbf943efd10369014, 87), (0x6e0531fae06fc38c, 89), (0x20b1b8b53ba50a25, 90), (0x20b1b8b53ba50a25, 90), (0x2104ae8d63d45531, 84), (0xeed8a6b21c083064, 87), (0x20b1b8b53ba50a25, 90), (0xc2d2941ee8d1fe08, 86), (0x20b1b8b53ba50a25, 90), (0x20b1b8b53ba50a25, 90), (0x20b1b8b53ba50a25, 90)]),
    ("traj12_sqrt_8@0", [(0x58681f99d429f655, 60), (0x4916ac382b49a8d7, 61), (0x11d98621f1016789, 64), (0x474dac67e8b5c203, 64), (0x6813015c3427a45b, 60), (0x783668202ca413d5, 60), (0x9773ef2f1079d90b, 65), (0x6813015c3427a45b, 60), (0xded349515b815e4b, 88), (0x2d2f761f732c3d75, 93), (0xea735061f66271d2, 85)]),
    ("traj12_sqrt_8@1", [(0xc25d484b2edd8f32, 55), (0x1d87c1f2818b9dd3, 56), (0x731fbc59f5a24097, 57), (0x01e3014a9ac54bb0, 57), (0x6813015c3427a45b, 60), (0x783668202ca413d5, 60), (0xab3c42bc98faa373, 60), (0x6813015c3427a45b, 60), (0xd076f417e4f71451, 78), (0xe0af17c0ee609326, 89), (0xfdbe9a9686999d49, 71)]),
    ("traj12_sqrt_8@2", [(0x45f07e6132eb3123, 53), (0xb80d5f2cdd577a1e, 55), (0xc25d484b2edd8f32, 55), (0xbdaf39bbab477428, 55), (0x092b8c0f461ac7fa, 54), (0x967f25c1a68a796d, 54), (0x6db27309c0eef29b, 55), (0x092b8c0f461ac7fa, 54), (0x0035431ca00e5224, 80), (0x05f059ffbe820c53, 82), (0x0034034ba193eb54, 74)]),
    ("traj12_sqrt_8@3", [(0x45f07e6132eb3123, 53), (0xb80d5f2cdd577a1e, 55), (0xc25d484b2edd8f32, 55), (0xbdaf39bbab477428, 55), (0x092b8c0f461ac7fa, 54), (0x967f25c1a68a796d, 54), (0x6db27309c0eef29b, 55), (0x092b8c0f461ac7fa, 54), (0x0035431ca00e5224, 80), (0x05f059ffbe820c53, 82), (0x0034034ba193eb54, 74)]),
    ("traj12_sqrt_8@4", [(0x5b4fc981f54fa91d, 74), (0x20015ec2a3e20b94, 78), (0x70806f10bdd06009, 76), (0x46bf907d8636d11a, 78), (0xcedafb90231921a2, 67), (0xd3ad6bb7f89d81f1, 70), (0xb7f6a469234c1609, 80), (0x9d2a4a52f37cf7d6, 77), (0x9165bd68eb6e2425, 83), (0x174c5d1f4c84d0eb, 94), (0x63d00bb230cbf4d3, 73)]),
    ("traj13_log2_4@0", [(0x622fb2f7f24a3634, 158), (0x42690ca52db53ab8, 168), (0x32d301cd28ad5e38, 162), (0xc33cc071c4f5abc6, 160), (0xbb063d9f226d4b64, 142), (0x34412140e46e7299, 143), (0xfaf0d4cf30293a26, 170), (0x0cd01225c342a71a, 12), (0x74b3cd0c0532beb8, 12), (0xccaf7247a85d335d, 15), (0xf2ea5b135233f7fe, 12)]),
    ("traj13_log2_4@1", [(0xf2ea5b135233f7fe, 12), (0x1b1c3a3025dc70bd, 12), (0xeb8e120b1926ba48, 11), (0xeb8e120b1926ba48, 11), (0xdc5130a45e76170f, 13), (0xdc5130a45e76170f, 13), (0x873f0f783c3f2299, 15), (0xccaf7247a85d335d, 15), (0xf55a4831fd6bb4c1, 14), (0x2e54d8ffe80534d0, 14), (0x7e2c91fa879efb6d, 12)]),
    ("traj13_log2_4@2", [(0xeb8e120b1926ba48, 11), (0x54af434ca6e2b223, 11), (0xeb8e120b1926ba48, 11), (0x54af434ca6e2b223, 11), (0x11a855afe1d5d6f4, 10), (0xeb8e120b1926ba48, 11), (0xeb8e120b1926ba48, 11), (0xeb8e120b1926ba48, 11), (0x13388ea91c4b8aa2, 14), (0x290b7929d61df59e, 15), (0x9b1171fe86feda31, 12)]),
    ("traj13_log2_4@3", [(0x91a4f4ed694cfcf5, 12), (0x8644e5cff963bef5, 13), (0xd3bb65ae43702dce, 11), (0xdb51bec9b3238128, 11), (0x13388ea91c4b8aa2, 14), (0x13388ea91c4b8aa2, 14), (0x96ce09f729103455, 14), (0x13388ea91c4b8aa2, 14), (0x7c3439f414e9d913, 12), (0x0d17f6d0d19dc691, 14), (0x80852b3f3edc92b4, 12)]),
    ("traj13_log2_4@4", [(0x91a4f4ed694cfcf5, 12), (0x8644e5cff963bef5, 13), (0xd3bb65ae43702dce, 11), (0xdb51bec9b3238128, 11), (0x13388ea91c4b8aa2, 14), (0x13388ea91c4b8aa2, 14), (0x96ce09f729103455, 14), (0x13388ea91c4b8aa2, 14), (0x7c3439f414e9d913, 12), (0x0d17f6d0d19dc691, 14), (0x80852b3f3edc92b4, 12)]),
    ("random11", [(0x5194a9a01972d60b, 11), (0x1ad0d4d725f83046, 18), (0xe9cc4725bc03f82d, 9), (0x57263e4bf10c49d0, 7), (0x221150c9fb123b88, 5), (0x221150c9fb123b88, 5), (0x7508e3601861b794, 22), (0x4316db43e4628972, 8), (0x8249888c84842d98, 25), (0x02a4c9fd47742f1b, 23), (0xb6ba196dc496e58d, 20)]),
    ("random12", [(0x9f5a2032f2b181e0, 48), (0xb99f2e7c70bef29a, 42), (0x169241921a6f742a, 43), (0x2b23ad65c118abde, 41), (0xb04fd4ff89a2794d, 34), (0x84824118067aeb2a, 35), (0x9d1ad488085a67da, 55), (0x4c792cc9afd9c651, 19), (0x31258902c64b1194, 59), (0x6a33ea20586b3223, 64), (0x9a98ab501009492d, 52)]),
    ("random13", [(0x20eafd2f2754222b, 50), (0xedb4e5f5789d65cd, 50), (0x042878268125d688, 39), (0xff50ea32f6a31f91, 32), (0xa9c7742107f5cb08, 36), (0x915857ef149e9971, 36), (0xa5a5d10fbcff5ba2, 85), (0xdb0ef03d6cca5b69, 21), (0xd33a433b056bbc55, 75), (0x0dc50058d827529e, 72), (0xdb7c6f5f40eb1f73, 55)]),
    ("random14", [(0x5c5213b42b3c7904, 57), (0x3b2d48cad5806c48, 65), (0x1512914c7a183448, 36), (0x5b376f0c3afe51d7, 41), (0x8791567feb2934ba, 37), (0xfb24c4d608c45bab, 36), (0xf50e532d493a5b04, 67), (0xeefbf3e2da9dcb40, 36), (0x51310f0710661a01, 81), (0x42d4757990276f0a, 78), (0xb5a86a85921c4d97, 68)]),
    ("random15", [(0xd1304be6128b60c2, 47), (0xd81428c97a8b00be, 47), (0x413f39704157063b, 45), (0xa88195ada3a5f26b, 45), (0x6d4afabff5903b6c, 39), (0x421bef46dbd5489a, 39), (0xc866d91923956a68, 65), (0x1c49ce0af63e9cd3, 40), (0x1f2ab66a84b855c5, 69), (0x557bf6683857a37b, 69), (0x7cf0c5e5ec6b78c9, 56)]),
];

#[test]
fn transforms_match_frozen_table() {
    let mut actual = Vec::new();
    for (label, aig) in inputs() {
        let outs: Vec<(u64, usize)> = Transform::ALL
            .iter()
            .map(|t| {
                let out = t.apply(&aig);
                (out.content_hash(), out.num_ands())
            })
            .collect();
        actual.push((label, outs));
    }
    let mut table = String::new();
    for (label, outs) in &actual {
        table.push_str(&format!("    ({label:?}, ["));
        for (i, (h, n)) in outs.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            table.push_str(&format!("{sep}({h:#018x}, {n})"));
        }
        table.push_str("]),\n");
    }
    let mut mismatches = Vec::new();
    if FROZEN.len() != actual.len() {
        mismatches.push(format!(
            "frozen table has {} rows, the inputs give {}",
            FROZEN.len(),
            actual.len()
        ));
    }
    for ((label, outs), (frozen_label, frozen)) in actual.iter().zip(FROZEN) {
        if label != frozen_label {
            mismatches.push(format!("row {label}: frozen as {frozen_label}"));
            continue;
        }
        for (t, (got, want)) in Transform::ALL.iter().zip(outs.iter().zip(frozen)) {
            if got != want {
                mismatches.push(format!("{label} / {t}: got {got:?}, frozen {want:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} synthesis outputs changed:\n{}\ncurrent table:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
