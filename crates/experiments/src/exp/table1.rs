//! Table 1 — applications and working sets.
//!
//! Prints the application catalog exactly as the paper tabulates it,
//! plus the scaled working set actually used by the simulations. The
//! numeric columns go through the columnar store's one atomic writer,
//! `ColBuilder::write`, like every sweep (to `<out>/store/table1.cols`,
//! then read back), so external tooling can consume the catalog without
//! parsing the CSV. Its rows are `AppId::ALL` in order; as the catalog,
//! not a sweep, it has no coordinate columns.

use crate::columnar::{ColBuilder, ColFile};
use crate::ExpCtx;
use coma_stats::Table;
use coma_workloads::{catalog::WS_SCALE_DIV, AppId};

pub fn run(ctx: &ExpCtx) {
    let mut b = ColBuilder::new(AppId::ALL.len());
    b.col_f64(
        "paper_ws_mb",
        AppId::ALL.iter().map(|a| Some(a.paper_ws_mb())).collect(),
    );
    b.col_u64(
        "ws_bytes",
        AppId::ALL.iter().map(|a| Some(a.ws_bytes())).collect(),
    );
    let store_dir = ctx.out_dir.join("store");
    std::fs::create_dir_all(&store_dir).expect("create store directory");
    let path = store_dir.join("table1.cols");
    b.write(&path).expect("write table1 store");
    println!("[store] {}", path.display());
    let cols = ColFile::open(&path).expect("read back table1 store");

    let mut t = Table::new(vec![
        "Application",
        "Description",
        "Working set (MB)",
        "Scaled (KB)",
    ]);
    for (i, app) in AppId::ALL.into_iter().enumerate() {
        let ws_mb = cols.get_f64("paper_ws_mb", i).expect("catalog row");
        let ws_bytes = cols.get_u64("ws_bytes", i).expect("catalog row");
        t.row(vec![
            app.name().to_string(),
            app.description().to_string(),
            format!("{:.1}", ws_mb),
            format!("{:.0}", ws_bytes as f64 / 1024.0),
        ]);
    }
    println!("Table 1: Applications and working sets (scale 1/{WS_SCALE_DIV})\n");
    println!("{}", t.render());
    ctx.write_csv("table1", &t);
}
