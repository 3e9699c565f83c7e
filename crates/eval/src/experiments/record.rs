//! Records the suite's results in EXPERIMENTS.md.
//!
//! Every measured section of the document sits between a marker pair,
//! `<!-- NAME -->` … `<!-- /NAME -->`. [`fill`] replaces the text between
//! each pair with the section the suite rendered and leaves everything
//! else, the prose around the sections included, byte for byte as it was.
//! Filling an already-filled document gives the same bytes as filling a
//! fresh one.

/// One rendered section: a marker name and the text placed between its
/// pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Marker name, e.g. `TABLE1_MEASURED`.
    pub name: &'static str,
    /// The rendered numbers (without the markers).
    pub body: String,
}

/// Returns `doc` with every section's marker pair holding that section.
///
/// # Errors
///
/// Names the first problem found, in section order:
/// * a begin or end marker is missing, appears more than once, or the end
///   marker comes before the begin marker;
/// * a body renders a non-finite number (Rust prints them as `NaN` and
///   `inf`).
pub fn fill(doc: &str, sections: &[Section]) -> Result<String, String> {
    let mut out = doc.to_string();
    for section in sections {
        if let Some(word) = section
            .body
            .split(|c: char| !c.is_ascii_alphanumeric())
            .find(|w| *w == "NaN" || *w == "inf")
        {
            return Err(format!("section {} renders a non-finite number ({word})", section.name));
        }
        let begin = format!("<!-- {} -->", section.name);
        let end = format!("<!-- /{} -->", section.name);
        let start = find_once(&out, &begin)? + begin.len();
        let stop = find_once(&out, &end)?;
        if stop < start {
            return Err(format!("marker {end} comes before {begin}"));
        }
        out.replace_range(start..stop, &format!("\n{}\n", section.body.trim_end()));
    }
    Ok(out)
}

/// The byte offset of the only occurrence of `marker` in `doc`.
fn find_once(doc: &str, marker: &str) -> Result<usize, String> {
    let mut hits = doc.match_indices(marker).map(|(i, _)| i);
    match (hits.next(), hits.next()) {
        (Some(i), None) => Ok(i),
        (None, _) => Err(format!("marker {marker} is missing")),
        (Some(_), Some(_)) => Err(format!("marker {marker} appears more than once")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# Title\n\nprose A\n\n<!-- T1 -->\nold table\n<!-- /T1 -->\n\n\
                       prose B\n<!-- F4 --><!-- /F4 -->\ntail\n";

    fn sections() -> Vec<Section> {
        vec![
            Section { name: "T1", body: "```text\nD1  1.0\n```".to_string() },
            Section { name: "F4", body: "* D1: 0.372\n".to_string() },
        ]
    }

    #[test]
    fn replaces_only_the_text_between_each_pair() {
        let filled = fill(DOC, &sections()).unwrap();
        assert_eq!(
            filled,
            "# Title\n\nprose A\n\n<!-- T1 -->\n```text\nD1  1.0\n```\n<!-- /T1 -->\n\n\
             prose B\n<!-- F4 -->\n* D1: 0.372\n<!-- /F4 -->\ntail\n"
        );
    }

    #[test]
    fn filling_twice_equals_filling_once() {
        let once = fill(DOC, &sections()).unwrap();
        assert_eq!(fill(&once, &sections()).unwrap(), once);
    }

    #[test]
    fn missing_or_repeated_markers_are_named() {
        let input = DOC.replace("<!-- /F4 -->", "");
        let before = input.clone();
        let err = fill(&input, &sections()).unwrap_err();
        assert!(err.contains("<!-- /F4 -->") && err.contains("missing"), "{err}");
        assert_eq!(input, before);

        let input = format!("{DOC}<!-- T1 -->\n");
        let err = fill(&input, &sections()).unwrap_err();
        assert!(err.contains("<!-- T1 -->") && err.contains("more than once"), "{err}");

        let input = "<!-- /T1 --> x <!-- T1 -->";
        let err = fill(input, &sections()[..1]).unwrap_err();
        assert!(err.contains("comes before"), "{err}");
    }

    #[test]
    fn a_non_finite_number_names_its_section() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = sections();
            s[1].body = format!("* D1: {bad:.3}");
            let err = fill(DOC, &s).unwrap_err();
            assert!(err.contains("section F4"), "{err}");
        }
        // Words that merely contain the letters are not numbers.
        let mut s = sections();
        s[1].body = "information, NaNs".to_string();
        assert!(fill(DOC, &s).is_ok());
    }
}
