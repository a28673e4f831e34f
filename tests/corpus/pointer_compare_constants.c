/* p<q on constant pointers killed optimize_module with an untyped AttributeError. */
int corpus_probe(void) { int *p = (int*)(-4); int *q = (int*)4; return p < q; }
