/* Well-formed variability: both configurations compile, so clint must
 * report nothing here — the analyze-smoke job checks the negative too. */
#ifdef CONFIG_FAST
static int scale(int v) { return v * 2; }
#else
static int scale(int v) { return v + 1; }
#endif

int run(int v) { return scale(v); }

/* A parameter and a block-scope enumerator each shadow a name that only
 * some configurations declare at file scope: every use below is declared
 * in both configurations. */
#ifdef CONFIG_A
int x;
int RED;
#endif
int f(int x) { return x; }
int g(void) { enum { RED = 1 }; return RED; }
