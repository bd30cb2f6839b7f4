fn main() {
    coma_experiments::exp::sensitivity::run(&coma_experiments::ExpCtx::from_env());
}
