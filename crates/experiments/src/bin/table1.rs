fn main() {
    coma_experiments::exp::table1::run(&coma_experiments::ExpCtx::from_env());
}
