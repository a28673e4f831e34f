/* A character literal cut off after its escape at the very end of the
   source was an IndexError in the lexer. */
int corpus_probe(void) { return '\x