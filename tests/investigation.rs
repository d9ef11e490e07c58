//! The live end-to-end investigation of §3 as an executable test: starting
//! with no prior knowledge of the attack, the analyst's query sequence must
//! surface each attack step's evidence in order.

use aiql::sim::{build_store, scenario_demo, Scale};
use aiql::{Engine, EngineConfig, EventStore, StoreConfig};

fn setup() -> (EventStore, Engine) {
    let store = build_store(&scenario_demo(Scale::test()), StoreConfig::default());
    (store, Engine::new(EngineConfig::default()))
}

fn rendered(store: &EventStore, table: &aiql::ResultTable) -> String {
    table.render(store.interner())
}

#[test]
fn step_a5_investigation_narrative() {
    let (store, engine) = setup();

    // 1. Anomaly hunt on the DB server: finds the implant and the drop IP.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               window = 1 min, step = 10 sec
               proc p write ip i as evt
               return p, i, avg(evt.amount) as amt
               group by p, i
               having amt > 2 * (amt + amt[1] + amt[2]) / 3 and amt > 1000000"#,
        )
        .unwrap();
    let out = rendered(&store, &t);
    assert!(
        out.contains("sbblv.exe"),
        "anomaly missed the implant:\n{out}"
    );
    assert!(out.contains("172.16.99.129"), "anomaly missed the drop IP");

    // 2. What did it read? — the database dump.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p["%sbblv%"] read file f as evt return distinct f"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("backup1.dmp"));

    // 3. Who created the dump? — the legitimate SQL server process.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p write file f["%backup1.dmp"] as evt return distinct p"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("sqlservr.exe"));

    // 4. Channel established before the transfer? — yes.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p["%sbblv%"] connect ip i[dstip = "172.16.99.129"] as evt1
               proc p write ip i2[dstip = "172.16.99.129"] as evt2
               with evt1 before evt2
               return distinct p"#,
        )
        .unwrap();
    assert_eq!(t.rows.len(), 1, "connect-before-transfer not confirmed");
}

#[test]
fn step_a1_entry_point_discovery() {
    let (store, engine) = setup();
    // Inbound from the suspicious IP: the vulnerable IRC daemon.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 1
               proc p accept ip i[srcip = "172.16.99.129"] as evt return distinct p"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("ircd"));

    // What did it spawn? A shell.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 1
               proc p1["%ircd"] start proc p2 as evt return distinct p2"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("/bin/sh"));
}

#[test]
fn step_a3_and_a4_tool_discovery() {
    let (store, engine) = setup();
    // Tools the client implant launched.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 0
               proc p1["%sbblv%"] start proc p2 as evt return distinct p2"#,
        )
        .unwrap();
    let out = rendered(&store, &t);
    assert!(out.contains("mimikatz.exe"));
    assert!(out.contains("kiwi.exe"));

    // Credential dumpers on the DC.
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 3
               proc p1["%sbblv%"] start proc p2 as evt return distinct p2"#,
        )
        .unwrap();
    let out = rendered(&store, &t);
    assert!(out.contains("PwDump7.exe"));
    assert!(out.contains("WCE.exe"));
}

#[test]
fn iterative_refinement_narrows_results() {
    // The UI workflow: a broad query returns plenty; adding constraints
    // narrows it monotonically.
    let (store, engine) = setup();
    let broad = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2 proc p write file f as e return p, f"#,
        )
        .unwrap();
    let narrowed = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p["%sqlservr%"] write file f as e return p, f"#,
        )
        .unwrap();
    let pinned = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p["%sqlservr%"] write file f["%backup1.dmp"] as e return p, f"#,
        )
        .unwrap();
    assert!(broad.rows.len() > narrowed.rows.len());
    assert!(narrowed.rows.len() >= pinned.rows.len());
    assert_eq!(pinned.rows.len(), 1);
}

#[test]
fn case_study_investigation_narrative() {
    use aiql::sim::scenario_case_study;
    let store = build_store(&scenario_case_study(Scale::test()), StoreConfig::default());
    let engine = Engine::new(EngineConfig::default());

    // 1. Who delivered the dropper? — the mail client.
    let t = engine
        .execute_text(
            &store,
            r#"(at "04/02/2018") agentid = 0
               proc p write file f["%invoice_dropper%"] as e return distinct p"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("outlook.exe"));

    // 2. Shell chain from the dropper.
    let t = engine
        .execute_text(
            &store,
            r#"(at "04/02/2018") agentid = 0
               proc p1["%invoice_dropper%"] start proc p2["%cmd.exe"] as e1
               proc p2 start proc p3["%powershell%"] as e2
               with e1 before e2
               return distinct p3"#,
        )
        .unwrap();
    assert_eq!(t.rows.len(), 1);

    // 3. Lateral movement lands the implant on the server (cross-host).
    let t = engine
        .execute_text(
            &store,
            r#"(at "04/02/2018")
               forward: proc p1["%psexec%", agentid = 0] ->[connect] proc p2[agentid = 1]
               ->[write] file f["%malsvc%"]
               return f"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("malsvc.exe"));

    // 4. Staging and exfiltration chain ends at the C2 address.
    let t = engine
        .execute_text(
            &store,
            r#"(at "04/02/2018") agentid = 1
               proc p1["%rar.exe"] write file f["%stage.rar"] as e1
               proc p2["%ftp.exe"] read file f as e2
               proc p2 write ip i[dstip = "172.16.99.200"] as e3
               with e1 before e2, e2 before e3
               return distinct p2, i"#,
        )
        .unwrap();
    assert!(rendered(&store, &t).contains("172.16.99.200"));
}

#[test]
fn explain_shows_scheduling_decisions() {
    let (store, engine) = setup();
    let q = aiql::parse_query(
        r#"(at "03/19/2018") agentid = 2
           proc p3 write file f1 as big
           proc p1["%cmd.exe"] start proc p2["%osql.exe"] as rare
           return p1"#,
    )
    .unwrap();
    let plan = aiql::engine::explain(
        &store,
        &q,
        engine.config(),
        &aiql::engine::ExecBudget::unlimited(),
    )
    .unwrap();
    let rare = plan.patterns.iter().find(|p| p.name == "rare").unwrap();
    assert_eq!(rare.position, 0, "most selective pattern runs first");
    let text = plan.render();
    assert!(text.contains("pruning priority: on"));
}

#[test]
fn results_export_to_csv() {
    let (store, engine) = setup();
    let t = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p write file f["%backup1.dmp"] as e return p, f, e.amount"#,
        )
        .unwrap();
    let csv = t.to_csv(store.interner());
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("p,f,e.amount"));
    let row = lines.next().unwrap();
    assert!(row.contains("sqlservr.exe"));
    assert!(row.contains("backup1.dmp"));
}

#[test]
fn multi_day_range_covers_single_day_data() {
    let (store, engine) = setup();
    // The scenario is one day; a surrounding range must find the same rows.
    let narrow = engine
        .execute_text(
            &store,
            r#"(at "03/19/2018") agentid = 2
               proc p write file f["%backup1.dmp"] as e return p"#,
        )
        .unwrap();
    let wide = engine
        .execute_text(
            &store,
            r#"(at "03/18/2018" to "03/20/2018") agentid = 2
               proc p write file f["%backup1.dmp"] as e return p"#,
        )
        .unwrap();
    assert_eq!(narrow.normalized().rows, wide.normalized().rows);
    // A disjoint range finds nothing.
    let miss = engine
        .execute_text(
            &store,
            r#"(at "04/01/2018" to "04/05/2018") agentid = 2
               proc p write file f["%backup1.dmp"] as e return p"#,
        )
        .unwrap();
    assert!(miss.rows.is_empty());
}

#[test]
fn syntax_errors_are_actionable() {
    let (store, engine) = setup();
    let src = "proc p read file f as e\nretrun p";
    let err = engine.execute_text(&store, src).unwrap_err();
    let text = err.to_string();
    // Points at line 2 where `return` was misspelled.
    assert!(text.contains("2:"), "{text}");
}
