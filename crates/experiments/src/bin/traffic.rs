fn main() {
    coma_experiments::exp::traffic::run(&coma_experiments::ExpCtx::from_env());
}
