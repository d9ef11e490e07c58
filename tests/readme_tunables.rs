//! README's "## Tunables" tables and the config structs name the same
//! fields: removing (or adding) a tunable has to touch the docs.

use std::collections::BTreeSet;

use aiql::engine::ServiceConfig;
use aiql::{EngineConfig, StoreConfig};

/// The field names of a config, read off its pretty `Debug` rendering:
/// the lines one level deep (nested configs indent further).
fn fields_of(debug: &str) -> BTreeSet<String> {
    debug
        .lines()
        .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
        .filter_map(|l| l.trim_start().split_once(':'))
        .map(|(name, _)| name.to_string())
        .filter(|name| name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .collect()
}

/// The backticked names in the first cell of every row of the table that
/// follows the line introducing `config` inside the Tunables section.
fn documented(readme: &str, config: &str) -> BTreeSet<String> {
    let section = readme
        .split_once("\n## Tunables\n")
        .expect("README has a Tunables section")
        .1;
    let section = section.split("\n## ").next().unwrap_or(section);
    let intro = format!("`{config}` (");
    let table = section
        .split_once(intro.as_str())
        .unwrap_or_else(|| panic!("Tunables introduces a `{config}` table"))
        .1;
    table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .flat_map(|row| {
            let cell = row.trim_start_matches('|').split('|').next().unwrap_or("");
            let names: Vec<String> = cell
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect();
            names
        })
        .collect()
}

#[test]
fn readme_tunables_match_the_config_structs() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the repo root");
    for (config, debug) in [
        ("StoreConfig", format!("{:#?}", StoreConfig::default())),
        ("EngineConfig", format!("{:#?}", EngineConfig::default())),
        ("ServiceConfig", format!("{:#?}", ServiceConfig::default())),
    ] {
        let fields = fields_of(&debug);
        assert!(!fields.is_empty(), "{config}: no fields read from {debug}");
        let rows = documented(&readme, config);
        let undocumented: Vec<_> = fields.difference(&rows).collect();
        let stale: Vec<_> = rows.difference(&fields).collect();
        assert!(
            undocumented.is_empty() && stale.is_empty(),
            "{config}: fields without a README Tunables row {undocumented:?}, \
             rows naming no field {stale:?}"
        );
    }
}
