//! Test-region detection over sanitized source.
//!
//! The non-test lints (`rng-discipline`, `float-accumulation`) only apply to
//! code that ships:
//! anything under a `#[cfg(test)]` attribute (the workspace convention is a
//! trailing `mod tests`) or a `#[test]` function is exempt. Regions are found by
//! locating the attribute, then brace-matching the item that follows —
//! sanitized text has no braces inside strings or comments, so counting is
//! exact.

/// Returns one flag per line (0-indexed): true when the line belongs to a
/// test-only item.
pub fn test_regions(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    for (start, l) in lines.iter().enumerate() {
        if !(l.contains("#[cfg(test)]") || l.contains("#[test]")) {
            continue;
        }
        // Walk forward from the attribute: the item it decorates ends at the
        // close of its first brace block, or at a `;` for brace-less items
        // (e.g. `#[cfg(test)] use ...;`).
        let mut depth = 0usize;
        let mut opened = false;
        let mut end = start;
        'scan: for (li, line) in lines.iter().enumerate().skip(start) {
            // Skip everything up to (and including) the attribute's `]` on
            // the first line so `#[...]`'s own brackets don't confuse us —
            // attributes contain no braces, so only `{`/`}`/`;` matter.
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if !opened => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for flag in mask.iter_mut().take(end + 1).skip(start) {
            *flag = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(src: &str) -> Vec<String> {
        src.lines().map(str::to_string).collect()
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let mask = test_regions(&lines(src));
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse helper::thing;\nfn lib() {}\n";
        let mask = test_regions(&lines(src));
        assert_eq!(mask, vec![true, true, false]);
    }

    #[test]
    fn nested_braces_are_matched() {
        let src = "#[test]\nfn t() {\n    if x { y(); }\n    z();\n}\nfn lib() {}\n";
        let mask = test_regions(&lines(src));
        assert_eq!(mask, vec![true, true, true, true, true, false]);
    }
}
