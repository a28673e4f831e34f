/* (int)(1e308*10.0): the folder's own int(inf) died with OverflowError. */
int corpus_probe(void) { double x = 1e308; return (int)(x * 10.0); }
