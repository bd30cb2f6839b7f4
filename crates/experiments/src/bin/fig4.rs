fn main() {
    coma_experiments::exp::fig4::run(&coma_experiments::ExpCtx::from_env());
}
