package descriptor

import (
	"errors"
	"fmt"
	"strconv"
)

// Article is the bibliographic record type used throughout the paper's
// evaluation (Figure 1): an author (first/last), a title, a conference,
// a publication year and the file size in bytes.
type Article struct {
	AuthorFirst string
	AuthorLast  string
	Title       string
	Conf        string
	Year        int
	Size        int64
}

// ErrNotArticle is returned when a descriptor does not have the
// bibliographic shape of Figure 1.
var ErrNotArticle = errors.New("descriptor: not an article descriptor")

// Descriptor builds the article's descriptor tree, matching Figure 1:
//
//	<article>
//	  <author><first>John</first><last>Smith</last></author>
//	  <title>TCP</title> <conf>SIGCOMM</conf> <year>1989</year> <size>...</size>
//	</article>
//
// The tree is laid out already in normal order (every element name is
// distinct, so Normalize would order children by name alone) and in one
// allocation, so New's clone and sort are skipped.
func (a Article) Descriptor() Descriptor {
	t := new(articleTree)
	e, k := &t.elements, &t.kids
	*k = [...]*Element{&e[1], &e[4], &e[5], &e[6], &e[7], &e[2], &e[3]}
	*e = [...]Element{
		{Name: "article", Children: k[0:5:5]},
		{Name: "author", Children: k[5:7:7]},
		{Name: "first", Value: a.AuthorFirst},
		{Name: "last", Value: a.AuthorLast},
		{Name: "conf", Value: a.Conf},
		{Name: "size", Value: strconv.FormatInt(a.Size, 10)},
		{Name: "title", Value: a.Title},
		{Name: "year", Value: strconv.Itoa(a.Year)},
	}
	return Descriptor{Root: &e[0]}
}

// articleTree holds an article descriptor's elements, in tree order, and
// their child pointers.
type articleTree struct {
	elements [8]Element
	kids     [7]*Element
}

// Author returns "First Last".
func (a Article) Author() string {
	return a.AuthorFirst + " " + a.AuthorLast
}

// ArticleFromDescriptor reconstructs an Article from a descriptor produced
// by Article.Descriptor (or any descriptor with the same shape).
func ArticleFromDescriptor(d Descriptor) (Article, error) {
	if d.Root == nil || d.Root.Name != "article" {
		return Article{}, ErrNotArticle
	}
	get := func(names ...string) (string, error) {
		el := d.Root.Path(names...)
		if el == nil || !el.IsLeaf() {
			return "", fmt.Errorf("%w: missing %v", ErrNotArticle, names)
		}
		return el.Value, nil
	}
	var (
		a   Article
		err error
	)
	if a.AuthorFirst, err = get("author", "first"); err != nil {
		return Article{}, err
	}
	if a.AuthorLast, err = get("author", "last"); err != nil {
		return Article{}, err
	}
	if a.Title, err = get("title"); err != nil {
		return Article{}, err
	}
	if a.Conf, err = get("conf"); err != nil {
		return Article{}, err
	}
	yearStr, err := get("year")
	if err != nil {
		return Article{}, err
	}
	if a.Year, err = strconv.Atoi(yearStr); err != nil {
		return Article{}, fmt.Errorf("%w: bad year %q", ErrNotArticle, yearStr)
	}
	sizeStr, err := get("size")
	if err != nil {
		return Article{}, err
	}
	if a.Size, err = strconv.ParseInt(sizeStr, 10, 64); err != nil {
		return Article{}, fmt.Errorf("%w: bad size %q", ErrNotArticle, sizeStr)
	}
	return a, nil
}

// Fig1Articles returns the three sample articles of the paper's Figure 1
// (d1, d2, d3), used by tests and the quickstart example.
func Fig1Articles() []Article {
	return []Article{
		{AuthorFirst: "John", AuthorLast: "Smith", Title: "TCP", Conf: "SIGCOMM", Year: 1989, Size: 315635},
		{AuthorFirst: "John", AuthorLast: "Smith", Title: "IPv6", Conf: "INFOCOM", Year: 1996, Size: 312352},
		{AuthorFirst: "Alan", AuthorLast: "Doe", Title: "Wavelets", Conf: "INFOCOM", Year: 1996, Size: 259827},
	}
}
