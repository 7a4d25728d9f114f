//! EXPERIMENTS.md quotes measured numbers; it never retypes them.
//!
//! Every measured table there is a fenced block tagged with the golden
//! it comes from, e.g. a fence opened with
//! `` ```text golden=scripts/golden_all_paper.txt ``. The block's lines
//! must occur, consecutively, in that file. Trailing whitespace is
//! trimmed on both sides, because `repro` pads table cells. The goldens
//! themselves are diffed against fresh runs by `scripts/verify.sh`, so
//! a quoted number cannot drift from what the code prints.

use std::path::Path;

const FENCE: &str = "```";
const TAG: &str = "golden=";

/// One tagged block: the golden it names, the 1-based line of its
/// opening fence, and its lines.
struct Quote<'a> {
    golden: &'a str,
    line: usize,
    body: Vec<&'a str>,
}

/// The tagged blocks of a markdown document. An unclosed tagged block
/// is an error.
fn quotes(doc: &str) -> Result<Vec<Quote<'_>>, String> {
    let mut out = Vec::new();
    let mut open: Option<Quote> = None;
    let mut in_other_fence = false;
    for (i, line) in doc.lines().enumerate() {
        let fence = line.trim_start().starts_with(FENCE);
        if let Some(q) = open.as_mut() {
            if fence {
                out.extend(open.take());
            } else {
                q.body.push(line);
            }
        } else if fence && in_other_fence {
            in_other_fence = false;
        } else if fence {
            match line.split_whitespace().find_map(|w| w.strip_prefix(TAG)) {
                Some(golden) => {
                    open = Some(Quote {
                        golden,
                        line: i + 1,
                        body: Vec::new(),
                    })
                }
                None => in_other_fence = true,
            }
        }
    }
    match open {
        Some(q) => Err(format!(
            "line {}: block quoting {} is never closed",
            q.line, q.golden
        )),
        None => Ok(out),
    }
}

/// Whether `needle` occurs as consecutive lines of `hay`, both with
/// trailing whitespace trimmed.
fn occurs_in(needle: &[&str], hay: &str) -> bool {
    let hay: Vec<&str> = hay.lines().map(str::trim_end).collect();
    let needle: Vec<&str> = needle.iter().map(|l| l.trim_end()).collect();
    hay.windows(needle.len()).any(|w| w == needle.as_slice())
}

/// Every problem with the tagged blocks of `doc`, reading goldens with
/// `read` (`None` for a missing file). Empty when every block quotes
/// its golden.
fn check(doc: &str, read: impl Fn(&str) -> Option<String>) -> Vec<String> {
    let quotes = match quotes(doc) {
        Ok(q) => q,
        Err(e) => return vec![e],
    };
    quotes
        .iter()
        .filter_map(|q| {
            let at = format!("line {}: {}", q.line, q.golden);
            if q.body.is_empty() {
                return Some(format!("{at}: empty block"));
            }
            match read(q.golden) {
                None => Some(format!("{at}: no such file")),
                Some(text) if !occurs_in(&q.body, &text) => {
                    Some(format!("{at}: block is not consecutive lines of the file"))
                }
                Some(_) => None,
            }
        })
        .collect()
}

fn repo_file(rel: &str) -> Option<String> {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)).ok()
}

#[test]
fn experiments_md_quotes_its_goldens() {
    let doc = repo_file("EXPERIMENTS.md").expect("EXPERIMENTS.md");
    let n = quotes(&doc).expect("blocks close").len();
    assert!(n > 0, "EXPERIMENTS.md has no tagged golden excerpts");
    let problems = check(&doc, repo_file);
    assert!(
        problems.is_empty(),
        "EXPERIMENTS.md:\n{}",
        problems.join("\n")
    );
}

#[test]
fn a_changed_digit_or_a_missing_golden_fails() {
    let golden = "== Table 1 ==\nversion  Tn   \nTCP      4961 \nVIA      6053\n";
    let read = |name: &str| (name == "g.txt").then(|| golden.to_string());
    let doc = |name: &str, row: &str| {
        format!("prose\n```text golden={name}\nversion  Tn\n{row}\n```\nmore prose\n")
    };
    assert!(check(&doc("g.txt", "TCP      4961"), read).is_empty());
    let changed = check(&doc("g.txt", "TCP      4962"), read);
    assert_eq!(changed.len(), 1);
    assert!(changed[0].contains("not consecutive"), "{changed:?}");
    // Lines of the file, but not consecutive ones.
    assert_eq!(check(&doc("g.txt", "VIA      6053"), read).len(), 1);
    let missing = check(&doc("gone.txt", "TCP      4961"), read);
    assert_eq!(missing, ["line 2: gone.txt: no such file"]);
}

#[test]
fn untagged_fences_are_skipped_and_bad_blocks_are_reported() {
    let read = |_: &str| Some("a\nb\n".to_string());
    // An untagged code block is not a quote.
    let doc = "```bash\nrepro all\n```\n```text golden=g.txt\nb\n```\n";
    assert_eq!(quotes(doc).unwrap().len(), 1);
    assert!(check(doc, read).is_empty());
    assert_eq!(check("```text golden=g.txt\n```\n", read).len(), 1);
    let unclosed = check("```text golden=g.txt\na\n", read);
    assert!(unclosed[0].contains("never closed"), "{unclosed:?}");
}
