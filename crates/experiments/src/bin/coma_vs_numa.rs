fn main() {
    coma_experiments::exp::coma_vs_numa::run(&coma_experiments::ExpCtx::from_env());
}
