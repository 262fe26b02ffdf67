//! The operations file: one record per line, fields separated by single
//! spaces, the record kind first. Lines starting with `#` are comments.
//! Serve records end with a JSON body that may itself contain spaces.

use immersion_core::design::CmpDesign;
use immersion_serve::api::{chip_by_key, cooling_by_key};
use std::path::Path;

pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Records of `kind`, each split into at most `fields` fields (the last
/// one keeps any remaining spaces).
pub fn records<'t>(text: &'t str, kind: &str, fields: usize) -> Vec<Vec<&'t str>> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts: Vec<&str> = l.splitn(fields + 1, ' ').collect();
            (parts.first() == Some(&kind)).then(|| parts.split_off(1))
        })
        .collect()
}

pub fn parse<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field
        .parse()
        .map_err(|_| format!("bad field '{field}' in operations file"))
}

/// `-` for "no value", else a number.
pub fn opt_f64(field: &str) -> Result<Option<f64>, String> {
    if field == "-" {
        Ok(None)
    } else {
        parse(field).map(Some)
    }
}

/// A design point from `chip n cooling grid flip` fields.
pub fn design(
    chip: &str,
    n: &str,
    cooling: &str,
    grid: &str,
    flip: &str,
) -> Result<CmpDesign, String> {
    let chip = chip_by_key(chip).map_err(|e| e.message)?;
    let cooling = cooling_by_key(cooling).map_err(|e| e.message)?;
    let g: usize = parse(grid)?;
    Ok(CmpDesign::new(chip, parse(n)?, cooling)
        .with_grid(g, g)
        .with_flip(flip == "1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_split_on_kind_and_keep_the_tail_whole() {
        let text = "# comment\nop 1 2 {\"a\": 1}\nmodel 0 hf\nop 3 4 x";
        let ops = records(text, "op", 3);
        assert_eq!(ops, vec![vec!["1", "2", "{\"a\": 1}"], vec!["3", "4", "x"]]);
        assert_eq!(records(text, "model", 2), vec![vec!["0", "hf"]]);
    }
}
