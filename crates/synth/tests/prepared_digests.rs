//! Pins the exact output of the preparation pipeline: for every profile at
//! scale 1 (and two circuits at scale 10) the prepared network's FNV-1a
//! digest and the bits of `tmin_ns` / `tspec_ns` must equal the recorded
//! values. Any change to TILOS sizing, area recovery or electrical
//! correction that moves a single gate size or a single delay bit fails
//! here, before it can reach the voltage-scaling results.
//!
//! The digest is the one the repository benchmark checks: FNV-1a over the
//! cell id (little-endian) and drive-size byte of every gate, in node
//! order, with every non-gate node hashed as five `0xff` bytes.

use dvs_celllib::{compass, VoltagePair};
use dvs_netlist::Network;
use dvs_synth::{mcnc, prepare};

/// `(profile, scale, digest, tmin_ns bits, tspec_ns bits)`, generator salt
/// 0, the paper's (5 V, 4.3 V) library and 20 % relaxation.
#[rustfmt::skip]
const EXPECTED: &[(&str, usize, u64, u64, u64)] = &[
    ("C1355", 1, 0xb4fc1b89dcfa6cef, 0x400f7f5568e820e7, 0x40120b605ac4d8c9),
    ("C2670", 1, 0xfc835059dbaea419, 0x3fe2a7dd44135548, 0x3fe31c9eed4921bb),
    ("C3540", 1, 0xad427c808ddcc24e, 0x401301ecd4aa10e1, 0x401301ecd4bb3eed),
    ("C432", 1, 0x4df595bc2530825d, 0x4011625931ca7d67, 0x4014192231945dd8),
    ("C499", 1, 0x4a9c2ba11a7e7f80, 0x401012b5568e820f, 0x401242aed14a7125),
    ("C5315", 1, 0x1099ecf910a640b2, 0x3fff106cca2db61c, 0x3fff106cca726e4c),
    ("C7552", 1, 0xed8cf7a65691725e, 0x4005ef1800a7c5ae, 0x4005ef1800ca21c6),
    ("C880", 1, 0xa5107610e1fdaa2b, 0x3fff106cca2db61c, 0x3fff106cca726e4c),
    ("alu2", 1, 0x505fd98d7525369d, 0x4013a3be22e5de16, 0x4013a3be22f70c22),
    ("alu4", 1, 0x2ac708b0437adb78, 0x40177148fd9fd370, 0x40177148fdb1017c),
    ("apex6", 1, 0x85d9311e0ec6787e, 0x3ff431fddebd901a, 0x3ff431fddf02484a),
    ("apex7", 1, 0xf3303d4de02a3dc0, 0x3feea80f12c27a64, 0x3feea80f134beac3),
    ("b9", 1, 0x6d694f06e5569e84, 0x3fee210385c67dff, 0x3fee2103864fee5e),
    ("dalu", 1, 0x087b14d43093e7ff, 0x4012ca8d64d7f0ee, 0x4012ca8d64e91efa),
    ("des", 1, 0x1bf946b5eef50889, 0x3fff106cca2db61c, 0x3fff106cca726e4c),
    ("f51m", 1, 0x972a22cf32ec14b9, 0x400a18c996b7670b, 0x400d4c156e48aa61),
    ("i1", 1, 0x4aa8dd8c4344756a, 0x3fe0641919ac7970, 0x3fe064191a35e9cf),
    ("i10", 1, 0xa795fceef45fe9c9, 0x3ff9eef0ae536502, 0x3ff9eef0ae981d32),
    ("i2", 1, 0x276e8239454f8e69, 0x3fef81b866e43aa8, 0x3fef81b8676dab07),
    ("i3", 1, 0xbf923011e589574f, 0x3fe3f9b13165d39a, 0x3fe3f9b131ef43f9),
    ("i5", 1, 0xa421c8aa3ce236c2, 0x3fe2a71de69ad42d, 0x3fe2a71de724448c),
    ("i6", 1, 0x68323b8f48d61a20, 0x3ff431fddebd901a, 0x3ff431fddf02484a),
    ("k2", 1, 0x343eeb077196fe47, 0x4006dca6ca03c4b2, 0x4006dca6ca2620ca),
    ("lal", 1, 0x2e7461c8b4bcb86b, 0x3fee210385c67dff, 0x3fee2103864fee5e),
    ("mux", 1, 0xf961995bd94d1288, 0x3ff9217ebaf10237, 0x3ff9217ebb35ba67),
    ("my_adder", 1, 0x471ded74534a5fe4, 0x4015be3c4b09e98d, 0x401a141bda6247d5),
    ("pair", 1, 0xd19bcb3f57d6491b, 0x3ffa327674d16336, 0x3ffa327675161b66),
    ("pcle", 1, 0x8be36f46eb19a4e4, 0x400839aee631f8a0, 0x400976d71f588244),
    ("pm1", 1, 0xb076958a61f013ad, 0x3fe2a71de69ad42d, 0x3fe2a71de724448c),
    ("rot", 1, 0x8dd29e27fcb90658, 0x3fee210385c67dff, 0x3fee2103864fee5e),
    ("sct", 1, 0x7b2e5263d4355b38, 0x3fee210385c67dff, 0x3fee2103864fee5e),
    ("term1", 1, 0x94447d901079eced, 0x40021f04577d9558, 0x40021f04579ff170),
    ("too_large", 1, 0x2914fa2b3b8c9290, 0x4016dca0902de00d, 0x40180ed330a54a8f),
    ("vda", 1, 0xbc1705080b8a3205, 0x400099ed7c6fbd28, 0x400099ed7c921940),
    ("x1", 1, 0xbf319cc993ee0690, 0x3ff431fddebd901a, 0x3ff431fddf02484a),
    ("x2", 1, 0x3745ee962094a555, 0x3feea80f12c27a64, 0x3feea80f134beac3),
    ("x3", 1, 0xa119d63df77494b5, 0x3feea80f12c27a64, 0x3feea80f134beac3),
    ("x4", 1, 0x2f93d8ab8cb7c132, 0x3fe2a71de69ad42d, 0x3fe3fb7e91890783),
    ("z4ml", 1, 0x99df1cb83766bf55, 0x4007ad388a8b08de, 0x400c105879603599),
    ("pcle", 10, 0x7b0d45181f21937e, 0x403ee24cb7d41751, 0x404013fbfc676695),
    ("my_adder", 10, 0x4e9273be341ed3d5, 0x4048c726cf41f1fe, 0x404db8d0dae60c94),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn digest(net: &Network) -> u64 {
    net.node_ids().fold(FNV_OFFSET, |h, id| {
        let node = net.node(id);
        if node.is_gate() {
            let h = fnv1a(h, &node.cell().0.to_le_bytes());
            fnv1a(h, &[node.size().0])
        } else {
            fnv1a(h, &[0xff; 5])
        }
    })
}

fn cases() -> Vec<(&'static str, usize)> {
    let mut cases: Vec<_> = mcnc::PROFILES.iter().map(|p| (p.name, 1)).collect();
    cases.extend([("pcle", 10), ("my_adder", 10)]);
    cases
}

#[test]
fn prepared_networks_match_recorded_digests() {
    let lib = compass::compass_library(VoltagePair::default());
    let actual: Vec<(&str, usize, u64, u64, u64)> = cases()
        .into_iter()
        .map(|(name, scale)| {
            let profile = mcnc::find(name).expect("known profile");
            let net = mcnc::generate_scaled(profile, &lib, scale, 0);
            let p = prepare(net, &lib, 1.2);
            (
                name,
                scale,
                digest(&p.network),
                p.tmin_ns.to_bits(),
                p.tspec_ns.to_bits(),
            )
        })
        .collect();
    if actual != EXPECTED {
        // print the observed table so an intended change can be re-recorded
        for (name, scale, d, tmin, tspec) in &actual {
            println!("    ({name:?}, {scale}, 0x{d:016x}, 0x{tmin:016x}, 0x{tspec:016x}),");
        }
        for (a, e) in actual.iter().zip(EXPECTED) {
            assert_eq!(a, e, "prepared network of {}.x{} moved", a.0, a.1);
        }
        assert_eq!(actual.len(), EXPECTED.len(), "case count");
    }
}
