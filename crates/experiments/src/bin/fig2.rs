fn main() {
    coma_experiments::exp::fig2::run(&coma_experiments::ExpCtx::from_env());
}
