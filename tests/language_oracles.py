"""Language-table helpers that only the tests use: membership of an admitted
word, the Rauzy graph of an order, a JSON view of a whole table, and the
eager derivation of every legal length.  Each reads the table through its
public word sets, so it serves a primitive table (which derives lengths on
demand) and a non-primitive one alike.
"""

from substdyn.language import LanguageTable


def is_admitted(table: LanguageTable, word) -> bool:
    """Whether the word is admitted; MarginError past the table's cap."""
    coded = table.sub.encode(word)
    return coded in table.admitted_coded(len(coded))


def rauzy(table: LanguageTable, order: int):
    """Vertices (admitted words of the order) and labelled edges (admitted
    words one longer, as (prefix, suffix) pairs)."""
    sub = table.sub
    vertices = [sub.decode(w) for w in sorted(table.admitted_coded(order))]
    edges = [(sub.decode(word[:-1]), sub.decode(word[1:]))
             for word in sorted(table.admitted_coded(order + 1))]
    return vertices, edges


def to_json_dict(table: LanguageTable) -> dict:
    fmt = table.sub.format_word
    admitted = {str(length): sorted(fmt(w) for w in table.admitted(length))
                for length in range(table.max_length + 1)}
    legal = {str(length): sorted(fmt(w) for w in table.legal(length))
             for length in range(0 if not table.empty_subshift else 1,
                                 table.max_length + 1)}
    return {
        "max_length": table.max_length,
        "margin": table.margin,
        "stabilized_at": table.stabilized_at,
        "empty_subshift": table.empty_subshift,
        "admitted": admitted,
        "legal": legal,
        "exact": table.legal_exact,
    }


def eager_legal_sets(table: LanguageTable) -> dict[int, frozenset[str]]:
    """The legal words of every length up to max_length as a non-primitive
    table once built them all up front: the max_length set, then each
    shorter level as the words of the level above less their last letter."""
    words = table.legal_coded(table.max_length)
    out = {}
    for length in range(table.max_length, -1, -1):
        out[length] = words
        words = frozenset(w[:-1] for w in words)
    return out
