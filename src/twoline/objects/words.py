"""The one word search (Knuth, TAOCP 4A §7.2.1.1; Ruskey, *Combinatorial Generation*):
a family's words are the paths through a graph of states whose edges are letters."""
from __future__ import annotations

from typing import Iterator


def words(start, moves, word="") -> Iterator:
    """The words spelled from state start, each after the prefix word, in the
    order moves lists them.  moves(state) is None at a final state, where the
    word so far is a word; otherwise it lists (letter, next) pairs, and a next
    of None ends the word with that letter.  Letters are strings, or 1-tuples
    for a word that is a tuple.  States are numbered as they are found, and
    each one's row is read once, the first time the search pops it.  The
    search keeps its own stack of (word, state index); a row whose moves all
    end the word is written out at once."""
    table = [[None, ((word[:0],), ())], [start, None]]  # [state, row]: row is (ends, pushes)
    index = {None: 0, start: 1}
    stack = [(word, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        word, i = pop()
        if (row := table[i][1]) is None:
            found = moves(table[i][0])
            if found is None:
                row = table[0][1]
            elif all(after is None for _, after in found):
                row = tuple(letter for letter, _ in found), ()
            else:  # pushed reversed, so the first move is popped first
                for _, after in found:
                    if index.setdefault(after, len(table)) == len(table):
                        table.append([after, None])
                row = (), tuple((letter, index[after]) for letter, after in reversed(found))
            table[i][1] = row
        ends, pushes = row
        for letter in ends:
            yield word + letter
        for letter, j in pushes:
            push((word + letter, j))
