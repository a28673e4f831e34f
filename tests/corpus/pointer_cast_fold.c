/* ((unsigned)p) >> 28 for p=(int*)(-4) differed optimised vs unoptimised. */
int corpus_probe(void) { int *p = (int*)(-4); return ((unsigned)p) >> 28; }
