fn main() {
    coma_experiments::exp::seeds::run(&coma_experiments::ExpCtx::from_env());
}
