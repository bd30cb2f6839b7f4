fn main() {
    coma_experiments::exp::inclusion::run(&coma_experiments::ExpCtx::from_env());
}
