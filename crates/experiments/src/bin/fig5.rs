fn main() {
    coma_experiments::exp::fig5::run(&coma_experiments::ExpCtx::from_env());
}
