//! The documents' byte budget. ROADMAP.md has a fixed ceiling, and so
//! has every CHANGES.md entry written since the budget was set;
//! DESIGN.md, ARCHITECTURE.md, README.md and OBSERVABILITY.md may not
//! grow past the size they had when it was set: a change that adds to
//! one takes as much out. Lower a ceiling when a document shrinks;
//! never raise one.

/// Bytes each document may take.
const CEILINGS: [(&str, usize); 5] = [
    ("ROADMAP.md", 24 * 1024),
    ("DESIGN.md", 82_618),
    ("ARCHITECTURE.md", 20_587),
    ("README.md", 22_836),
    ("OBSERVABILITY.md", 22_131),
];

/// Bytes one CHANGES.md entry may take.
const ENTRY_CEILING: usize = 2_500;
/// The first entry under the ceiling: the ones before it predate it.
const FIRST_BUDGETED_PR: u32 = 26;

fn read(doc: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

#[test]
fn documents_stay_under_their_ceilings() {
    let over: Vec<String> = (CEILINGS.iter())
        .map(|&(doc, ceiling)| (doc, read(doc).len(), ceiling))
        .filter(|&(_, bytes, ceiling)| bytes > ceiling)
        .map(|(doc, bytes, ceiling)| format!("{doc}: {bytes} bytes, ceiling {ceiling}"))
        .collect();
    assert!(over.is_empty(), "{over:#?}");
}

/// CHANGES.md's entries as `(PR number, bytes)`: an entry is a `- PR N`
/// line and every line after it up to the next entry.
fn entries(changes: &str) -> Vec<(u32, usize)> {
    let mut entries: Vec<(u32, usize)> = Vec::new();
    for line in changes.split_inclusive('\n') {
        if let Some(rest) = line.strip_prefix("- PR ") {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            entries.push((rest[..digits].parse().unwrap_or(0), 0));
        }
        if let Some((_, bytes)) = entries.last_mut() {
            *bytes += line.len();
        }
    }
    entries
}

#[test]
fn every_budgeted_change_entry_stays_under_its_ceiling() {
    let entries = entries(&read("CHANGES.md"));
    let budgeted: Vec<_> = (entries.into_iter())
        .filter(|&(pr, _)| pr >= FIRST_BUDGETED_PR)
        .collect();
    assert!(
        !budgeted.is_empty(),
        "no entry from PR {FIRST_BUDGETED_PR} on"
    );
    let over: Vec<_> = (budgeted.iter())
        .filter(|&&(_, bytes)| bytes > ENTRY_CEILING)
        .collect();
    assert!(
        over.is_empty(),
        "(PR, bytes) of entries over {ENTRY_CEILING} bytes: {over:?}"
    );
}
