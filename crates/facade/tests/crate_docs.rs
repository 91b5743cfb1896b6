//! Documentation contract for the crates added after the seed: each
//! `lib.rs` cites the ADR that records its design, and the README crate
//! map has a row for it.

/// `(crate directory, its ADR, its lib.rs)`.
const POST_SEED_CRATES: [(&str, &str, &str); 5] = [
    (
        "service",
        "ADR-003",
        include_str!("../../service/src/lib.rs"),
    ),
    (
        "runtime",
        "ADR-004",
        include_str!("../../runtime/src/lib.rs"),
    ),
    ("store", "ADR-005", include_str!("../../store/src/lib.rs")),
    ("server", "ADR-008", include_str!("../../server/src/lib.rs")),
    (
        "telemetry",
        "ADR-009",
        include_str!("../../telemetry/src/lib.rs"),
    ),
];

const README: &str = include_str!("../../../README.md");

#[test]
fn post_seed_crates_cite_their_adr_and_have_a_readme_row() {
    for (name, adr, lib_rs) in POST_SEED_CRATES {
        assert!(
            lib_rs.contains(adr),
            "crates/{name}/src/lib.rs never cites {adr}"
        );
        assert!(
            README.contains(&format!("| `crates/{name}` |")),
            "the README crate map has no row for crates/{name}"
        );
    }
}
