fn main() {
    coma_experiments::exp::fig3::run(&coma_experiments::ExpCtx::from_env());
}
