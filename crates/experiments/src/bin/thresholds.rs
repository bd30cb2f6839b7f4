fn main() {
    coma_experiments::exp::thresholds::run(&coma_experiments::ExpCtx::from_env());
}
