//! An interactive AIQL shell — the terminal stand-in for the paper's web
//! UI: enter queries, see execution time and an interactive-ish table, get
//! caret-precise syntax errors, and inspect the generated SQL/Cypher.
//!
//! ```sh
//! cargo run --release --example repl
//! ```
//!
//! Meta-commands:
//!   :help            this help
//!   :demo            load the demo-attack scenario (Figure 4 dataset)
//!   :case            load the case-study scenario (Figure 5 dataset)
//!   :stats           store statistics
//!   :catalog         list the investigation query catalog for the loaded scenario
//!   :run <id>        run a catalog query by id (e.g. :run a5-5)
//!   :sql <query>     show the equivalent SQL instead of executing
//!   :cypher <query>  show the equivalent Cypher
//!   :explain <query> show the execution plan (scheduling, estimates)
//!   :csv <query>     execute and print CSV instead of a table
//!   :quit            exit

use std::io::{BufRead, Write};

use aiql::sim::{
    build_store, case_study_queries, demo_queries, scenario_case_study, scenario_demo,
    CatalogQuery, Scale,
};
use aiql::{Engine, EngineConfig, EventStore, StoreConfig};

struct Repl {
    store: EventStore,
    engine: Engine,
    catalog: Vec<CatalogQuery>,
}

impl Repl {
    fn load_demo(&mut self) {
        let scenario = scenario_demo(Scale::default());
        self.store = build_store(&scenario, StoreConfig::default());
        self.catalog = demo_queries();
        println!("loaded demo scenario: {}", self.store.stats().summary());
    }

    fn load_case(&mut self) {
        let scenario = scenario_case_study(Scale::default());
        self.store = build_store(&scenario, StoreConfig::default());
        self.catalog = case_study_queries();
        println!(
            "loaded case-study scenario: {}",
            self.store.stats().summary()
        );
    }

    fn execute(&self, src: &str) {
        let start = std::time::Instant::now();
        match self.engine.execute_text(&self.store, src) {
            Ok(table) => {
                let elapsed = start.elapsed();
                println!("{}", table.render(self.store.interner()));
                println!("{} rows in {elapsed:?}", table.rows.len());
            }
            Err(aiql::EngineError::Parse(e)) => println!("{}", e.render(src)),
            Err(e) => println!("error: {e}"),
        }
    }

    fn dispatch(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        if let Some(rest) = line.strip_prefix(':') {
            let (cmd, arg) = match rest.split_once(' ') {
                Some((c, a)) => (c, a.trim()),
                None => (rest, ""),
            };
            match cmd {
                "quit" | "q" | "exit" => return false,
                "help" => println!("see the header of examples/repl.rs for commands"),
                "demo" => self.load_demo(),
                "case" => self.load_case(),
                "stats" => println!("{}", self.store.stats().summary()),
                "catalog" => {
                    for q in &self.catalog {
                        println!("{:6} {}", q.id, q.description);
                    }
                }
                "run" => match self.catalog.iter().find(|q| q.id == arg) {
                    Some(q) => {
                        println!("{}", q.aiql.trim());
                        self.execute(&q.aiql.clone());
                    }
                    None => println!("unknown catalog id {arg:?} (try :catalog)"),
                },
                "sql" => match aiql::parse_query(arg) {
                    Ok(q) => println!("{}", aiql::lang::sql::to_sql(&q)),
                    Err(e) => println!("{}", e.render(arg)),
                },
                "cypher" => match aiql::parse_query(arg) {
                    Ok(q) => println!("{}", aiql::lang::cypher::to_cypher(&q)),
                    Err(e) => println!("{}", e.render(arg)),
                },
                "explain" => match aiql::parse_query(arg) {
                    Ok(q) => match self.engine.explain(
                        &self.store,
                        &q,
                        &aiql::engine::ExecBudget::unlimited(),
                    ) {
                        Ok(plan) => println!("{}", plan.render()),
                        Err(e) => println!("error: {e}"),
                    },
                    Err(e) => println!("{}", e.render(arg)),
                },
                "csv" => match self.engine.execute_text(&self.store, arg) {
                    Ok(table) => print!("{}", table.to_csv(self.store.interner())),
                    Err(aiql::EngineError::Parse(e)) => println!("{}", e.render(arg)),
                    Err(e) => println!("error: {e}"),
                },
                other => println!("unknown command :{other} (try :help)"),
            }
            return true;
        }
        self.execute(line);
        true
    }
}

fn main() {
    let mut repl = Repl {
        store: EventStore::default(),
        engine: Engine::new(EngineConfig::default()),
        catalog: Vec::new(),
    };
    println!("AIQL shell — :help for commands, :demo to load data, :quit to exit");
    repl.load_demo();

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("aiql> ");
        std::io::stdout().flush().ok();
        let Some(Ok(line)) = lines.next() else { break };
        if !repl.dispatch(&line) {
            break;
        }
    }
}
